(** Shared simulation state: per-rank virtual clocks, mailboxes, cost
    charging, failure flags, profiling and context-id allocation.

    The hybrid clock (DESIGN.md §4): communication advances a rank's clock
    by the network model's costs; compute advances it either by measured
    real CPU time of fiber segments ([Measured]) or by explicit charges
    ([Virtual_only], bit-exactly deterministic). *)

(** Logging source for runtime trace events (enable at debug level to see
    every message injection). *)
val log_src : Logs.src

type clock_mode = Measured | Virtual_only

(** Cached handles into the stats registry for hot-path observations. *)
type metrics = {
  msg_size : Stats.histogram;  (** payload bytes per injected message *)
  msg_latency : Stats.histogram;  (** consumed-at minus sent-at, virtual seconds *)
  queue_depth : Stats.histogram;  (** unexpected-queue depth after delivery *)
  park_wait : Stats.histogram;  (** wall-clock seconds a fiber spent parked *)
  msgs_sent : Stats.counter;
  msgs_unexpected : Stats.counter;
}

type t = {
  id : int;  (** unique per runtime; keys global registries *)
  size : int;
  model : Net_model.t;
  clock_mode : clock_mode;
  clocks : float array;
  mailboxes : Mailbox.t array;
  wire_pools : Wire.pool array;
      (** per-rank pooled wire buffers for the zero-copy send path *)
  failed : bool array;
  mutable n_failed : int;
  chaos : Chaos.t option;
      (** the chaos plane: fault decisions come from {!Chaos}, this
          runtime acts on them; [None] keeps every fault path to a single
          branch *)
  profile : Profiling.t;
  stats : Stats.t;  (** metrics registry; also backs [profile] *)
  trace : Trace.t;  (** event recorder; disabled unless enabled explicitly *)
  check : Check.t;  (** correctness sanitizer; inert at level [Off] *)
  metrics : metrics;
  busy : float array;
      (** per-rank virtual time charged by [advance_clock] (compute, send
          busy time, overheads); [busy.(r) +. blocked.(r) = clocks.(r)] *)
  blocked : float array;
      (** per-rank virtual time jumped over by [sync_clock] (waiting) *)
  lamport : int array;
      (** per-rank Lamport clocks: bumped on injection, merged (max + 1)
          on match; stamped into send/match trace instants *)
  comm_matrix : Comm_matrix.t;
      (** per-(src,dst) traffic matrix with collective-algorithm
          attribution; disabled (one branch per injection) by default *)
  progress : int Atomic.t;  (** monotone; drives deadlock detection *)
  mutable msg_seq : int;
  mutable next_context : int;
  mutable assertion_level : int;
      (** 0 = none, 1 = cheap local checks, 2 = heavy checks (§III-G) *)
  lock : Mutex.t;
      (** serializes cross-rank mutations in multicore mode; see
          {!locked} *)
  mutable parallel : bool;
      (** multicore backend active: {!locked} really locks *)
}

(** Raised inside a fiber whose rank was failed by injection. *)
exception Process_killed of int

(** [create] builds the shared state of one simulation.  [check_level]
    selects the {!Check} sanitizer level; it defaults to the
    [MPISIM_CHECK] environment variable (off|light|heavy), or [Off].
    [chaos] activates the fault-injection plane; omitted, it is still
    activated (with default knobs) when [model] carries a fault
    profile. *)
val create :
  ?clock_mode:clock_mode ->
  ?assertion_level:int ->
  ?check_level:Check.level ->
  ?chaos:Chaos.config ->
  model:Net_model.t ->
  size:int ->
  unit ->
  t

val bump_progress : t -> unit

(** Current value of the progress epoch (reads the atomic). *)
val progress_count : t -> int

(** Switch into multicore mode (one-way): cross-rank mutations start
    taking the runtime lock, the stats registry, profiling table and
    wire pools arm their internal guards.  Called by the engine before
    the domain-pool scheduler starts.

    Per-rank ownership invariant (asserted by the parallel scheduler): a
    rank's fiber runs on exactly one domain at a time, so rank-indexed
    state touched only by its own fiber — clocks, busy/blocked
    accounting, Lamport clocks, its own trace ring — needs no locks.
    Only state mutated across ranks (mailbox delivery and matching,
    [msg_seq], context allocation, communicator registries, collective
    rendezvous cells) serializes on {!locked}. *)
val set_parallel : t -> unit

(** [locked t f] runs [f] under the global runtime lock in multicore
    mode, as a plain call otherwise.  Not reentrant; never park a fiber
    inside [f]. *)
val locked : t -> (unit -> 'a) -> 'a

(** Allocate a fresh communicator context id. *)
val fresh_context : t -> int

val clock : t -> int -> float

val advance_clock : t -> int -> float -> unit

(** Move a rank's clock forward to [time] if it is behind. *)
val sync_clock : t -> int -> float -> unit

(** Measured CPU segments, reported by the engine. *)
val on_cpu_segment : t -> int -> float -> unit

(** Charge modelled compute explicitly (Virtual_only programs; modelled
    work our implementation does not perform). *)
val charge_compute : t -> int -> float -> unit

(** Pack/unpack cost: charged from the model in Virtual_only mode (it is
    measured for real in Measured mode). *)
val charge_copy : t -> int -> bytes:int -> unit

val is_failed : t -> int -> bool

(** Raise {!Process_killed} if the rank has been failed.  Also the chaos
    plane's trigger point: op-count and sim-time fault-plan actions fire
    here, killing the calling rank at a deterministic point in its own
    program. *)
val check_alive : t -> int -> unit

(** Count one task execution beginning on [rank] (called by the taskqueue
    plugin as each task starts) and raise {!Process_killed} if a
    [fail=R\@task:K] fault-plan trigger fires here.  A no-op without the
    chaos plane. *)
val task_tick : t -> int -> unit

val kill : t -> int -> unit

val any_failed : t -> bool

(** A pooled writer for packing one outgoing message on [rank].  Its
    storage must end up either in an injected message (via
    [Wire.unsafe_contents]) or back in the pool. *)
val acquire_writer : t -> int -> capacity:int -> Wire.writer

(** Pre-warm [rank]'s pool so its next [acquire_writer] returns a
    buffer of at least [capacity] bytes without allocating
    (persistent-request init; see {!Wire.preheat}). *)
val preheat_writer : t -> int -> capacity:int -> unit

(** Return a consumed message's payload storage to the receiver's pool.
    Idempotent; call only after the payload has been fully unpacked or
    copied out — any reader over the slice is dead afterwards. *)
val recycle_payload : t -> Message.t -> unit

(** Pack-and-send entry point: charges the sender, computes the arrival
    time and delivers to the destination mailbox.  The payload is a
    (storage, offset, length) slice whose storage the message takes over —
    typically a pooled writer's buffer handed over without a copy.
    Returns the in-flight message (synchronous-send requests watch its
    match flag).

    When tracing is on, emits a [send] instant (dst, message seq, bytes,
    Lamport clock); a stream capture also gets a [send_meta] instant (tag,
    seq, context, sync).  The offline happens-before analyzer derives its
    vector clocks from these and the receiver's [match] instants, so no
    clock travels with the message. *)
val inject :
  t ->
  context:int ->
  src:int ->
  dst:int ->
  tag:int ->
  payload:Bytes.t ->
  payload_off:int ->
  payload_len:int ->
  count:int ->
  signature:Signature.t ->
  sync:bool ->
  Message.t

(** Receiver-side accounting for a matched message: jump to the arrival
    time and pay the receive overhead. *)
val complete_receive : t -> int -> Message.t -> unit

val record : t -> op:string -> bytes:int -> unit

(** Wall-clock park duration, reported by the engine's scheduler hooks. *)
val observe_park_wait : t -> float -> unit

(** Trace span around a closure on a rank's virtual timeline; a plain call
    when tracing is disabled. *)
val with_span : t -> int -> cat:string -> name:string -> (unit -> 'a) -> 'a

(** The makespan: the largest per-rank clock. *)
val max_clock : t -> float

(** The rank's current Lamport clock. *)
val lamport_clock : t -> int -> int
