(** Top-level entry point: run an N-rank message-passing program.

    Every rank is a cooperative fiber with deterministic round-robin
    scheduling.  Virtual time combines the network model's communication
    costs with either measured per-segment CPU time ([Measured], the
    default) or explicitly charged compute ([Virtual_only], bit-exactly
    deterministic across runs).

    A fiber that raises aborts the whole run ({!Scheduler.Aborted} is
    re-raised with the rank); injected process failures
    ([Runtime.Process_killed]) only mark the rank as killed. *)

type report = {
  ranks : int;
  times : float array;  (** per-rank virtual completion time (seconds) *)
  max_time : float;  (** makespan: the run's simulated duration *)
  killed : int list;  (** ranks that died via failure injection *)
  profile : Profiling.summary;  (** per-operation call/byte counters *)
  model : Net_model.t;
  busy : float array;
      (** per-rank virtual time spent working;
          [busy.(r) +. blocked.(r) = times.(r)] *)
  blocked : float array;  (** per-rank virtual time spent waiting *)
  stats : Stats.t;  (** the runtime's metrics registry *)
  trace : Trace.t;
      (** event recorder; empty unless [trace_capacity] was passed
          (streamed events live in the [trace_stream] file, not here) *)
  comm_matrix : Comm_matrix.t;
      (** per-(src,dst) traffic matrix; empty unless [comm_matrix] *)
  chaos_log : string option;
      (** the chaos plane's event log ([None] when chaos was off): one
          line per fault decision, byte-identical across runs with the
          same seed, plan and [Virtual_only] clock — diff two to verify
          replay *)
}

val pp_report : Format.formatter -> report -> unit

(** [resolve_domains d] is the scheduler width that [run ?domains:d] would
    use: [Some 1]/[None]-without-env is the sequential scheduler, [Some 0]
    (or [MPISIM_DOMAINS=auto]) auto-sizes to the machine (cores minus one,
    capped), and when [d] is [None] the [MPISIM_DOMAINS] environment
    variable is consulted.  Raises [Errdefs.Usage_error] on a negative or
    malformed request.  Exposed so front ends can pre-validate flag
    combinations (e.g. reject a sequential-only subcommand under
    [MPISIM_DOMAINS=4]) with the engine's exact resolution rules. *)
val resolve_domains : int option -> int

(** [run_collect ~ranks body] executes [body world_comm] on every rank and
    collects each rank's result ([None] for killed ranks).

    @param model network cost model (default {!Net_model.omnipath})
    @param clock_mode measured CPU (default) or fully virtual time
    @param assertion_level 0 = none, 1 = cheap checks (default),
           2 = heavy checks incl. the collective-order trace (§III-G)
    @param check_level {!Check} sanitizer level (defaults to the
           [MPISIM_CHECK] environment variable, else off).  With the
           sanitizer on, deadlocks are reported as
           [Mpi_error ERR_DEADLOCK] with a named wait-for cycle, and a
           clean run ends with a leak scan over non-blocking requests.
    @param chaos activate the fault-injection plane with this config
           (drop/duplicate/corrupt draws, fault-plan triggers, reliable
           retransmission); also activated implicitly when [model]
           carries a fault profile
    @param trace_capacity enable event tracing with a per-rank ring buffer
           of this many events (disabled — and free — when absent)
    @param trace_stream stream every trace event to this binary file
           instead of buffering ({!Trace.enable_stream}): no per-rank
           rings, nothing dropped; wins over [trace_capacity]; the file
           is flushed and closed before the report is returned.  The
           stream also carries the instants the offline happens-before
           analyzer reads (post, matched, send_meta, nc_order), so every
           capture is analyzable with [repro_cli analyze]; the analyzer
           derives its vector clocks from the send and match events
    @param comm_matrix record the per-(src,dst) traffic matrix with
           collective-algorithm attribution (default off)
    @param on_runtime observes the runtime right after creation (the
           model checker captures it to reach mailboxes and progress)
    @param on_quiescence forwarded to {!Scheduler.run}: called when a
           scheduler pass runs nothing and progress is stuck; return
           [true] after applying a deferred match decision to continue,
           [false] to let deadlock detection fire
    @param domains scheduler backend width: [1] (the default) is the
           deterministic sequential scheduler; [n > 1] runs fibers on a
           fixed pool of [n] OCaml domains
           ({!Scheduler.run_parallel}), [0] auto-sizes to the machine
           (one domain per core minus one, capped).  When absent, the
           [MPISIM_DOMAINS] environment variable ("auto"|integer) is
           consulted.  [domains > 1] is rejected with
           [Errdefs.Usage_error] when combined with chaos injection,
           the {!Check} sanitizer or [on_quiescence] — those planes
           need the sequential schedule. *)
val run_collect :
  ?model:Net_model.t ->
  ?clock_mode:Runtime.clock_mode ->
  ?assertion_level:int ->
  ?check_level:Check.level ->
  ?chaos:Chaos.config ->
  ?trace_capacity:int ->
  ?trace_stream:string ->
  ?comm_matrix:bool ->
  ?on_runtime:(Runtime.t -> unit) ->
  ?on_quiescence:(unit -> bool) ->
  ?domains:int ->
  ranks:int ->
  (Comm.t -> 'a) ->
  'a option array * report

val run :
  ?model:Net_model.t ->
  ?clock_mode:Runtime.clock_mode ->
  ?assertion_level:int ->
  ?check_level:Check.level ->
  ?chaos:Chaos.config ->
  ?trace_capacity:int ->
  ?trace_stream:string ->
  ?comm_matrix:bool ->
  ?on_runtime:(Runtime.t -> unit) ->
  ?on_quiescence:(unit -> bool) ->
  ?domains:int ->
  ranks:int ->
  (Comm.t -> unit) ->
  report

(** Like {!run_collect} but requires every rank to survive; raises
    [Failure] otherwise. *)
val run_values :
  ?model:Net_model.t ->
  ?clock_mode:Runtime.clock_mode ->
  ?assertion_level:int ->
  ranks:int ->
  (Comm.t -> 'a) ->
  'a array
