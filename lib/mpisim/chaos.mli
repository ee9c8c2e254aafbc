(** The chaos plane: a seeded, fully deterministic fault-injection engine
    plus the reliable-delivery model that keeps lossy runs terminating.

    All randomness comes from one xoshiro256** stream consumed in
    simulation order; with the deterministic scheduler, identical
    (seed, fault plan, program) triples produce a byte-identical chaos
    event log ({!log_contents}).

    [Chaos] makes fault {e decisions}; {!Runtime} acts on them — kills
    ranks, shifts arrival times, charges retransmission costs and raises
    [ERR_PROC_FAILED] when a transfer escalates.  See DESIGN.md §5 for
    the escalation ladder and determinism guarantees. *)

(** Per-link fault rates.  Probabilities are per transmission attempt
    and lie in [\[0, 1\]]; [jitter] bounds a uniform extra transit delay
    in seconds.  All-zero rates describe a perfect link. *)
type link_rates = {
  drop : float;
  duplicate : float;
  reorder : float;
  corrupt : float;
  jitter : float;
}

(** All-zero link rates. *)
val perfect_link : link_rates

(** A moderately lossy rate set (2% drop, 1% duplicate/reorder, 0.5%
    corrupt, jitter = [latency]). *)
val lossy_rates : latency:float -> link_rates

(** The rates of every link without an override: perfect, the model's
    {!lossy_rates}, or explicit ones. *)
type default_rates = Perfect | Lossy | Rates of link_rates

(** Everything that configures a run's faults; nothing else does. *)
type config = {
  seed : int;  (** PRNG seed (default 1) *)
  rates : default_rates;  (** default per-link rates (default [Perfect]) *)
  links : ((int * int) * link_rates) list;
      (** per-link overrides, keyed by (src, dst) world rank (default none) *)
  plan : Fault_plan.t;  (** deterministic fault plan (default empty) *)
  max_retries : int;
      (** retransmissions before a transfer escalates to ERR_PROC_FAILED
          (default 8) *)
  rto : float option;
      (** base retransmit timeout in seconds; [None] (the default) is
          4 x the model's latency *)
  backoff : float;  (** per-attempt timeout multiplier, >= 1 (default 2.0) *)
  jitter_cap : float;
      (** bound on one delivery's accumulated jitter in seconds (default
          [infinity]) *)
  deliver_corrupt : bool;
      (** test knob: deliver corrupted payloads so the receiver-side CRC
          backstop fires instead of modelling corruption as loss (default
          false) *)
}

(** Build a config; every omitted field takes the default its
    documentation states. *)
val config :
  ?seed:int ->
  ?rates:default_rates ->
  ?links:((int * int) * link_rates) list ->
  ?plan:Fault_plan.t ->
  ?max_retries:int ->
  ?rto:float ->
  ?backoff:float ->
  ?jitter_cap:float ->
  ?deliver_corrupt:bool ->
  unit ->
  config

(** Parse a [--chaos] spec: ';'-separated clauses [seed=N], [lossy],
    [drop=F], [dup=F], [reorder=F], [corrupt=F], [jitter=F],
    [retries=N], [rto=F], [backoff=F], [jitter_cap=F],
    [deliver_corrupt], [link=A>B:drop=F,...], plus the {!Fault_plan}
    clauses ([fail=R\@ops:K], [fail=R\@t:T], [fail=R\@task:K],
    [droplink=A>B\@N], [partition=R,S\@T1-T2]).  A bare integer is
    shorthand for [seed=N;lossy].  Probabilities above 1, non-finite
    numbers (except [jitter_cap=inf]) and [lossy] beside a default-rate
    clause are [Error]s naming the clause. *)
val config_of_string : string -> (config, string) result

(** A spec that {!config_of_string} parses back to an equal config (the
    replay line printed by the CLI and CI jobs).  Retry clauses appear
    only where they differ from the defaults. *)
val config_to_string : config -> string

type t

(** Start the chaos plane for a run of [size] ranks.  Raises
    {!Errdefs.Usage_error} naming the clause when a link override or a
    plan action names a rank outside the run. *)
val create :
  size:int -> model:Net_model.t -> stats:Stats.t -> trace:Trace.t -> config -> t

val seed : t -> int

val deliver_corrupt : t -> bool

(** Chaos events decided so far. *)
val events : t -> int

(** The deterministic replay log (one line per chaos event). *)
val log_contents : t -> string

(** Count one runtime operation of [rank] (its own clock is [now]) and
    report whether a plan trigger fells the rank here.  The caller kills
    the rank and raises. *)
val tick : t -> rank:int -> now:float -> bool

(** Count one task execution beginning on [rank] (taskqueue plugin
    workloads; fed through [Runtime.task_tick]) and report whether a
    [fail=R\@task:K] plan trigger fells the rank here.  The caller kills
    the rank and raises. *)
val task_tick : t -> rank:int -> bool

(** Time-based plan triggers due at global progress point [now]: the
    ranks that must die now even though their fibers may be parked.  Each
    trigger fires once. *)
val due_time_failures : t -> now:float -> int list

(** The decided fate of one logical message transfer. *)
type transfer = {
  tr_escalated : bool;
      (** all attempts lost: declare the peer dead (ERR_PROC_FAILED) *)
  tr_attempts : int;  (** 1 = clean first transmission *)
  tr_delay : float;  (** extra arrival delay (backoff + jitter + reorder) *)
  tr_sender_busy : float;  (** retransmission cost charged to the sender *)
  tr_corrupt : bool;  (** payload delivered corrupted ([deliver_corrupt]) *)
}

(** Decide the fate of the message with global sequence number [seq]
    injected on link [src -> dst] at sender time [now].  Draws from the
    chaos PRNG; deterministic given (seed, plan, call order). *)
val on_transfer : t -> src:int -> dst:int -> seq:int -> bytes:int -> now:float -> transfer

(** Flip one random bit of the payload slice (the [deliver_corrupt]
    path). *)
val corrupt_payload : t -> Bytes.t -> pos:int -> len:int -> unit
