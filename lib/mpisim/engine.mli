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
      (** event recorder; empty unless [trace_capacity] or [trace_stream]
          was passed ({!Trace.fold} reads either sink) *)
  comm_matrix : Comm_matrix.t;
      (** per-(src,dst) traffic matrix; empty unless [comm_matrix] *)
  chaos_log : string option;
      (** the chaos plane's event log ([None] when chaos was off): one
          line per fault decision, byte-identical across runs with the
          same seed, plan and [Virtual_only] clock — diff two to verify
          replay *)
}

val pp_report : Format.formatter -> report -> unit

(** [run_collect ~ranks body] executes [body world_comm] on every rank and
    collects each rank's result ([None] for killed ranks).

    @param model network cost model (default {!Net_model.omnipath})
    @param clock_mode measured CPU (default) or fully virtual time
    @param check_level {!Check} sanitizer level (defaults to the
           [MPISIM_CHECK] environment variable, else off).  With the
           sanitizer on, deadlocks are reported as
           [Mpi_error ERR_DEADLOCK] with a named wait-for cycle, and a
           clean run ends with a leak scan over non-blocking requests.
    @param chaos activate the fault-injection plane with this config
           (drop/duplicate/corrupt draws, fault-plan triggers, reliable
           retransmission); omitted, the plane is off
    @param trace_capacity enable event tracing with a per-rank ring buffer
           of this many events (disabled — and free — when absent)
    @param trace_stream stream every trace event to this binary file
           instead of buffering ({!Trace.enable_stream}): no per-rank
           rings, nothing dropped, and [trace_capacity] is not used.  The
           file is flushed and closed before the report is returned, and
           the report's [trace] reads it back ({!Trace.fold}), so its
           Chrome export and critical path are those of a ring run.  The
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
           [false] to let deadlock detection fire *)
val run_collect :
  ?model:Net_model.t ->
  ?clock_mode:Runtime.clock_mode ->
  ?check_level:Check.level ->
  ?chaos:Chaos.config ->
  ?trace_capacity:int ->
  ?trace_stream:string ->
  ?comm_matrix:bool ->
  ?on_runtime:(Runtime.t -> unit) ->
  ?on_quiescence:(unit -> bool) ->
  ranks:int ->
  (Comm.t -> 'a) ->
  'a option array * report

(** {!run_collect} without the per-rank results.

    @param assertion_level compatibility only; use [check_level].  The
           commit and signature checks it once gated always run; [1] is
           accepted and ignored, any other value raises
           [Errdefs.Usage_error].
    @param domains compatibility only: a run always executes on one
           domain; [1] is accepted and ignored, any other value raises
           [Errdefs.Usage_error].  Use {!run_many} for parallelism. *)
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
  ranks:int ->
  (Comm.t -> 'a) ->
  'a array

(** [run_many thunks] runs independent thunks — typically whole
    simulations, each with its own runtime — on
    [min (List.length thunks) (Domain.recommended_domain_count ())]
    domains, the calling one included, and returns their results in
    input order.  Every thunk runs to completion even when another one
    raises; after every domain has been joined, the exception of the
    lowest-index failing thunk is re-raised with its backtrace.

    Runs share no simulator state, so a [Virtual_only] run gives the same
    result here as alone.  What a thunk touches outside its own run (a
    shared [ref], a channel) is the caller's concern: the pool adds no
    locking.  Per-run configuration travels in the run's arguments (the
    model carries collective-algorithm pins, {!Coll_algo.pin}), so
    differently configured thunks do not interfere. *)
val run_many : (unit -> 'a) list -> 'a list
