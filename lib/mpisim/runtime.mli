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
  inflight : Request.inflight array;
      (** per-rank schedules in flight, advanced by {!Request.block} *)
  mutable progress : int;  (** monotone; drives deadlock detection *)
  mutable msg_seq : int;
  mutable next_context : int;
}

(** Raised inside a fiber whose rank was failed by injection. *)
exception Process_killed of int

(** [create] builds the state of one simulation; nothing in it is shared
    with another runtime, so independent runs may execute concurrently on
    different domains.  [check_level]
    selects the {!Check} sanitizer level; it defaults to the
    [MPISIM_CHECK] environment variable (off|light|heavy), or [Off].
    [chaos] activates the fault-injection plane; omitted, the plane is
    off. *)
val create :
  ?clock_mode:clock_mode ->
  ?check_level:Check.level ->
  ?chaos:Chaos.config ->
  model:Net_model.t ->
  size:int ->
  unit ->
  t

val bump_progress : t -> unit

(** Current value of the progress epoch. *)
val progress_count : t -> int

(** Allocate a fresh communicator context id. *)
val fresh_context : t -> int

val clock : t -> int -> float

val advance_clock : t -> int -> float -> unit

(** Move a rank's clock forward to [time] if it is behind. *)
val sync_clock : t -> int -> float -> unit

(** The message path's clock reads and moves, over the message's time
    stamps ({!Message.stamp}) so no float crosses a module boundary
    boxed: [clock_stamp t rank] is the rank's clock as a stamp (a posted
    receive's); [arrived t rank m] whether [m] has arrived by the rank's
    clock; [sync_to_arrival t rank m] waits on the clock for [m] (a probe
    observes it); [sync_to_ack t rank m] completes a synchronous send of
    the matched [m] at its match time plus the acknowledgement's
    latency. *)
val clock_stamp : t -> int -> int

val arrived : t -> int -> Message.t -> bool

val sync_to_arrival : t -> int -> Message.t -> unit

val sync_to_ack : t -> int -> Message.t -> unit

(** Measured CPU segments, reported by the engine. *)
val on_cpu_segment : t -> int -> float -> unit

(** Charge modelled compute explicitly (Virtual_only programs; modelled
    work our implementation does not perform). *)
val charge_compute : t -> int -> float -> unit

(** Charge the scan of a dense vector collective's count arrays:
    [entries] of them at the model's [dense_scan_byte] each (computed
    here, so no float crosses the call). *)
val charge_dense_scan : t -> int -> entries:int -> unit

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

(** [rank]'s pooled writer, for packing one outgoing message.  Its
    storage must end up either in an injected message (via
    [Wire.unsafe_contents]) or back in the pool; the record itself is
    handed out again by the next acquire on [rank] ({!Wire.acquire}). *)
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
