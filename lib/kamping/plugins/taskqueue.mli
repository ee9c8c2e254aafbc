(** Elastic fault-tolerant task queue: farm heterogeneous serialized
    tasks over a communicator with an exactly-once guarantee on recorded
    results, surviving stragglers, message chaos and rank death
    (including death of the master).

    Collective: every rank of [comm] calls {!run} with the same task
    table; every surviving rank returns the full result vector and the
    (possibly shrunken) communicator the run committed on.

    Exactly-once here means: a task function may {e execute} more than
    once — a straggler's lease expires and the task is re-dispatched, a
    worker dies mid-task, a recovery round re-runs unrecorded work — but
    exactly one execution's result enters the final vector, and every
    surplus completion is counted in the [taskqueue.duplicates_suppressed]
    stat.  The other [taskqueue.*] counters ({!val-run} registers
    [dispatched], [completed], [redispatched], [duplicates_suppressed],
    [leases_expired], [throttled], [checkpoints], [steals]) expose the
    scheduler's behavior to [--stats] and the bench gates.

    Fault tolerance is the DESIGN.md §10 protocol: local knowledge
    tables + master checkpoint replication to its successor, resync
    gather/bcast at the start of every {!Ulfm.run_with_recovery} attempt
    (so a re-elected master resumes without re-running recorded tasks),
    and a revoke-before-agree commit so all survivors leave together. *)

type mode =
  | Master_worker  (** pull-based: comm rank 0 owns leases and dispatch *)
  | Nbx
      (** decentralized bulk-synchronous rebalancing over the sparse
          (NBX) all-to-all plugin *)

val mode_to_string : mode -> string

val mode_of_string : string -> (mode, string) result

type config = {
  mode : mode;
  lease_timeout : float;
      (** base virtual-time lease per dispatched task (master mode),
          doubled per re-dispatch; expiry requeues the task *)
  max_in_flight : int;  (** bound on simultaneously leased tasks *)
  rate : float;
      (** token-bucket dispatch rate, tasks per virtual second;
          [infinity] disables the limiter *)
  burst : int;  (** token-bucket capacity *)
  checkpoint_every : int;
      (** master replicates newly recorded results to its successor
          every this many completions *)
  batch : int;  (** tasks executed per NBX round before rebalancing *)
  max_recovery_retries : int;  (** recovery rounds before giving up *)
}

(** Validating constructor; every field defaults to a sane value
    ([Master_worker], 1 ms leases, unbounded window, limiter
    off, checkpoint every 16, batch 4, 8 recovery retries). *)
val config :
  ?mode:mode ->
  ?lease_timeout:float ->
  ?max_in_flight:int ->
  ?rate:float ->
  ?burst:int ->
  ?checkpoint_every:int ->
  ?batch:int ->
  ?max_recovery_retries:int ->
  unit ->
  config

(** [run ~cfg comm ~task_codec ~result_codec ?deps ~tasks ~exec ()]
    executes [exec id tasks.(id)] for every task id exactly once
    (as recorded) and returns the result vector on every surviving rank.

    [deps] (optional) gives each task a list of earlier task ids that
    must complete before it may start — a DAG by construction; invalid
    edges raise [Err_usage].  [exec] runs on whichever rank the scheduler
    places the task on; payloads and results travel through the given
    codecs.  Raises {!Ulfm.Failure_detected} when recovery retries are
    exhausted. *)
val run :
  ?cfg:config ->
  Kamping.Communicator.t ->
  task_codec:'a Serial.Codec.t ->
  result_codec:'b Serial.Codec.t ->
  ?deps:int list array ->
  tasks:'a array ->
  exec:(int -> 'a -> 'b) ->
  unit ->
  'b array * Kamping.Communicator.t
