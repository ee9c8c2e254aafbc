(* Shared simulation state: clocks, mailboxes, cost charging, failures.

   The hybrid clock (paper-reproduction design, see DESIGN.md §4): each rank
   has a virtual clock that advances by

   - the network model's costs for communication, and
   - either measured real CPU time of its fiber segments ([Measured] mode)
     or explicitly charged compute ([Virtual_only] mode).

   All communication goes through [inject]: the payload is already packed;
   we charge the sender, compute the arrival time, and hand the message to
   the destination mailbox. *)

(* Trace logging: enable with Logs.Src.set_level (e.g. in a debugging
   session) to see every message injection, match and failure event.  The
   level check makes this free when disabled. *)
let log_src = Logs.Src.create "mpisim" ~doc:"Message-passing runtime events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type clock_mode = Measured | Virtual_only

(* Cached handles into the stats registry for hot-path observations. *)
type metrics = {
  msg_size : Stats.histogram;  (* payload bytes per injected message *)
  msg_latency : Stats.histogram;  (* consumed-at minus sent-at, virtual seconds *)
  queue_depth : Stats.histogram;  (* receiver's unexpected-queue depth after delivery *)
  park_wait : Stats.histogram;  (* wall-clock seconds a fiber spent parked *)
  msgs_sent : Stats.counter;
  msgs_unexpected : Stats.counter;  (* delivered before a matching receive was posted *)
}

type t = {
  size : int;
  model : Net_model.t;
  clock_mode : clock_mode;
  clocks : float array;
  mailboxes : Mailbox.t array;
  (* Per-rank pooled wire buffers: sends pack into a pooled writer whose
     storage is transferred (no copy) into the injected message; the
     receiver returns it via [recycle_payload] after unpacking. *)
  wire_pools : Wire.pool array;
  failed : bool array;
  mutable n_failed : int;
  (* The chaos plane: fault decisions come from [Chaos]; this runtime
     acts on them (kills, arrival shifts, escalation errors).  [None] —
     the default — keeps every fault path to a single branch. *)
  chaos : Chaos.t option;
  profile : Profiling.t;
  stats : Stats.t;
  trace : Trace.t;
  check : Check.t;
  metrics : metrics;
  (* Virtual-time accounting: every clock movement is either [busy] (cost
     charged by [advance_clock]: compute, send busy time, overheads) or
     [blocked] (a [sync_clock] jump: waiting for a message or a barrier),
     so busy.(r) +. blocked.(r) = clocks.(r) at all times. *)
  busy : float array;
  blocked : float array;
  (* Per-rank Lamport clocks: bumped on every injection, merged (max + 1)
     on every match.  Stamped into send/match trace instants (arg [d]),
     they give the causal walk a cheap cross-rank sanity invariant:
     a verified edge always has send-Lamport < match-Lamport. *)
  lamport : int array;
  (* Per-(src,dst) traffic matrix with algorithm attribution; disabled
     (one branch per injection) unless explicitly requested. *)
  comm_matrix : Comm_matrix.t;
  (* Per-rank schedules in flight, which the rank's blocking waits advance. *)
  inflight : Request.inflight array;
  mutable progress : int;
  mutable msg_seq : int;
  mutable next_context : int;
}

exception Process_killed of int

(* Default sanitizer level: the MPISIM_CHECK environment variable
   (off|light|heavy), so any program can be checked without a code or CLI
   change.  Unset or unparsable means Off. *)
let default_check_level () =
  match Sys.getenv_opt "MPISIM_CHECK" with
  | None -> Check.Off
  | Some s -> (
      match Check.level_of_string (String.lowercase_ascii (String.trim s)) with
      | Some l -> l
      | None ->
          Log.warn (fun f -> f "ignoring invalid MPISIM_CHECK=%S (want off|light|heavy)" s);
          Check.Off)

let create ?(clock_mode = Measured) ?check_level ?chaos ~model ~size () =
  if size <= 0 then invalid_arg "Runtime.create: size must be positive";
  let clocks = Array.make size 0. in
  let stats = Stats.create () in
  let metrics =
    {
      msg_size = Stats.histogram stats "msg_size_bytes";
      msg_latency = Stats.histogram stats "msg_latency_seconds";
      queue_depth = Stats.histogram stats "mailbox_unexpected_depth";
      park_wait = Stats.histogram stats "fiber_park_wall_seconds";
      msgs_sent = Stats.counter stats "msg.sent";
      msgs_unexpected = Stats.counter stats "msg.unexpected";
    }
  in
  let trace = Trace.create ~clocks in
  let check = Check.create ~stats ~trace ~size () in
  Check.set_level check
    (match check_level with Some l -> l | None -> default_check_level ());
  let chaos = Option.map (Chaos.create ~size ~model ~stats ~trace) chaos in
  {
    size;
    model;
    clock_mode;
    clocks;
    mailboxes = Array.init size (fun _ -> Mailbox.create ());
    wire_pools = Array.init size (fun _ -> Wire.create_pool ());
    failed = Array.make size false;
    n_failed = 0;
    chaos;
    profile = Profiling.create ~stats ();
    stats;
    trace;
    check;
    metrics;
    busy = Array.make size 0.;
    blocked = Array.make size 0.;
    lamport = Array.make size 0;
    comm_matrix = Comm_matrix.create ~size;
    inflight = Array.init size (fun _ -> Request.inflight ());
    progress = 0;
    msg_seq = 0;
    next_context = 0;
  }

let bump_progress t = t.progress <- t.progress + 1

let progress_count t = t.progress

let fresh_context t =
  let c = t.next_context in
  t.next_context <- c + 1;
  c

let clock t rank = t.clocks.(rank)

(* [rank]'s clock as a stamp, for a posted receive. *)
let clock_stamp t rank = Message.stamp t.clocks.(rank)

(* Inlined into its callers, in this module and (in the default build)
   in others, so the float amount is never boxed for a call. *)
let[@inline] advance_clock t rank dt =
  if dt > 0. then begin
    t.clocks.(rank) <- t.clocks.(rank) +. dt;
    t.busy.(rank) <- t.busy.(rank) +. dt
  end

let[@inline] sync_clock t rank time =
  if time > t.clocks.(rank) then begin
    t.blocked.(rank) <- t.blocked.(rank) +. (time -. t.clocks.(rank));
    t.clocks.(rank) <- time
  end

(* Whether [m] has arrived by [rank]'s clock. *)
let arrived t rank (m : Message.t) = Message.time m.Message.arrival_stamp <= t.clocks.(rank)

(* Wait on [rank]'s clock for [m] to arrive (a probe observes it). *)
let sync_to_arrival t rank (m : Message.t) =
  sync_clock t rank (Message.time m.Message.arrival_stamp)

(* Complete a synchronous send of the matched [m]: its match time plus the
   latency of the (modelled) acknowledgement. *)
let sync_to_ack t rank (m : Message.t) =
  sync_clock t rank (Message.time m.Message.matched_stamp +. Net_model.transit_time t.model)

(* Measured CPU segments are reported by the engine through this hook.
   When tracing, the segment becomes a complete span on the rank's CPU
   track, reaching back from the post-advance clock. *)
let on_cpu_segment t rank dt =
  if t.clock_mode = Measured && rank >= 0 && rank < t.size then begin
    advance_clock t rank dt;
    if dt > 0. then Trace.complete t.trace ~rank ~cat:"sched" ~name:"segment" ~dur:dt
  end

(* Charge modelled compute explicitly (used by Virtual_only programs and by
   cost knobs that represent work our implementation does not perform). *)
let charge_compute t rank seconds = advance_clock t rank seconds

(* The O(p) scan of a dense vector collective's count arrays: [entries]
   of them at the model's per-entry cost. *)
let charge_dense_scan t rank ~entries =
  advance_clock t rank (float_of_int entries *. t.model.Net_model.dense_scan_byte)

(* Pack/unpack cost: in Measured mode this CPU work is captured by segment
   measurement; in Virtual_only mode we charge the model's copy rate. *)
let charge_copy t rank ~bytes =
  if t.clock_mode = Virtual_only then
    advance_clock t rank (float_of_int bytes *. t.model.Net_model.copy_byte_time)

let is_failed t rank = t.failed.(rank)

let kill t rank =
  if not t.failed.(rank) then begin
    Log.info (fun f -> f "rank %d failed (injected)" rank);
    Trace.instant t.trace ~rank ~cat:"sim" ~name:"kill" ~a:(-1) ~b:(-1) ~c:(-1);
    t.failed.(rank) <- true;
    t.n_failed <- t.n_failed + 1;
    bump_progress t
  end

let check_alive t rank =
  if t.failed.(rank) then raise (Process_killed rank);
  match t.chaos with
  | None -> ()
  | Some ch ->
      (* Fault-plan triggers fire on the victim's own operation count or
         virtual clock, so the victim dies at a deterministic point in its
         program rather than at a scheduler-dependent one. *)
      if Chaos.tick ch ~rank ~now:t.clocks.(rank) then begin
        kill t rank;
        raise (Process_killed rank)
      end

(* Task-execution trigger point: the taskqueue plugin calls this as each
   task begins, so [fail=R@task:K] plans kill the rank at a deterministic
   task index rather than at an operation count that depends on the
   queue's message traffic. *)
let task_tick t rank =
  if t.failed.(rank) then raise (Process_killed rank);
  match t.chaos with
  | None -> ()
  | Some ch ->
      if Chaos.task_tick ch ~rank then begin
        kill t rank;
        raise (Process_killed rank)
      end

let any_failed t = t.n_failed > 0

(* A pooled writer for packing one outgoing message on [rank].  Its
   storage must end up either in an injected message (via
   [Wire.unsafe_contents]) or back in the pool. *)
let acquire_writer t rank ~capacity = Wire.acquire t.wire_pools.(rank) ~capacity

(* Pre-warm a rank's pool so the next acquire fits without allocating
   (persistent-request init). *)
let preheat_writer t rank ~capacity = Wire.preheat t.wire_pools.(rank) ~capacity

(* Return a consumed message's payload storage to the receiver's pool.
   Safe to call at most once per message; callers do so only after the
   payload has been fully unpacked or copied out. *)
let recycle_payload t (m : Message.t) =
  if not m.Message.consumed then begin
    m.Message.consumed <- true;
    if m.Message.dst >= 0 && m.Message.dst < t.size then
      Wire.recycle t.wire_pools.(m.Message.dst) m.Message.payload
  end

(* The reliable layer's view of one transfer under the chaos plane:
   (arrival, payload CRC).  May kill ranks and raise. *)
let chaos_transfer t ch ~src ~dst ~seq ~sent_at ~transit ~payload ~payload_off ~payload_len =
  (* Absolute-time failure triggers use the sender's clock as the global
     progress proxy; the scheduler's wake hook discontinues any victim
     that is currently parked. *)
  List.iter (fun r -> kill t r) (Chaos.due_time_failures ch ~now:sent_at);
  if t.failed.(src) then raise (Process_killed src);
  if src = dst then (sent_at +. transit, -1)
  else begin
    (* Frame the payload before any corruption decision so the
       receiver-side CRC backstop can detect a flip end to end. *)
    let crc = Wire.crc32 payload ~pos:payload_off ~len:payload_len in
    let tr = Chaos.on_transfer ch ~src ~dst ~seq ~bytes:payload_len ~now:sent_at in
    advance_clock t src tr.Chaos.tr_sender_busy;
    if tr.Chaos.tr_escalated then begin
      (* Retransmission budget exhausted: the reliable layer's failure
         detector declares the peer dead (ULFM semantics) and the send
         fails with ERR_PROC_FAILED. *)
      kill t dst;
      Errdefs.mpi_error Errdefs.Err_proc_failed
        "send %d->%d: no acknowledgement after %d attempts; peer declared failed" src dst
        tr.Chaos.tr_attempts
    end;
    if tr.Chaos.tr_corrupt then
      Chaos.corrupt_payload ch payload ~pos:payload_off ~len:payload_len;
    (sent_at +. transit +. tr.Chaos.tr_delay, crc)
  end

(* Lamport send rule: the injection is a local event, so tick first; the
   message carries the post-tick value for the receiver to merge. *)
let[@inline] tick_lamport t src =
  let lam = t.lamport.(src) + 1 in
  t.lamport.(src) <- lam;
  lam

(* Inject a packed message.  The payload is a (storage, offset, length)
   slice whose storage the message now owns — typically a pooled writer's
   buffer handed over without a copy.  [signature] is the signature of one
   element.  Charges the sender; returns the message so the caller can
   build a request around it (ssend completion etc.). *)
let inject t ~context ~src ~dst ~tag ~payload ~payload_off ~payload_len ~count ~signature
    ~sync =
  if dst < 0 || dst >= t.size then Errdefs.usage_error "send: invalid destination rank %d" dst;
  let bytes = payload_len in
  advance_clock t src (Net_model.send_busy_time t.model ~bytes);
  let sent_at = t.clocks.(src) in
  let seq = t.msg_seq in
  t.msg_seq <- seq + 1;
  let transit = Net_model.transit_time t.model in
  (* The no-chaos path builds its message directly, with no tuple for
     the framing fields. *)
  let m =
    match t.chaos with
    | None ->
        let lam = tick_lamport t src in
        Message.create ~crc:(-1) ~lamport:lam ~context ~src ~dst ~tag ~payload ~payload_off
          ~payload_len ~count ~signature ~sent_stamp:(Message.stamp sent_at)
          ~arrival_stamp:(Message.stamp (sent_at +. transit)) ~seq ~sync
    | Some ch ->
        let arrival, crc =
          chaos_transfer t ch ~src ~dst ~seq ~sent_at ~transit ~payload ~payload_off
            ~payload_len
        in
        let lam = tick_lamport t src in
        Message.create ~crc ~lamport:lam ~context ~src ~dst ~tag ~payload ~payload_off
          ~payload_len ~count ~signature ~sent_stamp:(Message.stamp sent_at)
          ~arrival_stamp:(Message.stamp arrival) ~seq ~sync
  in
  let lam = m.Message.lamport in
  (* The level test keeps the disabled path from building the log closure. *)
  (match Logs.Src.level log_src with
  | Some Logs.Debug ->
      Log.debug (fun f ->
          f "inject ctx=%d %d->%d tag=%d count=%d bytes=%d%s" context src dst tag count bytes
            (if sync then " (sync)" else ""))
  | _ -> ());
  Stats.incr t.metrics.msgs_sent;
  Stats.observe_int t.metrics.msg_size bytes;
  Comm_matrix.record t.comm_matrix ~src ~dst ~tag ~bytes;
  Trace.instant_d t.trace ~rank:src ~cat:"sim" ~name:"send" ~a:dst ~b:seq ~c:bytes ~d:lam;
  (* Analyzer input, stream captures only: the fields the happens-before
     pass needs that the send instant has no room for (tag, context, sync
     flag).  Ring traces keep their exact event mix. *)
  if Trace.is_streaming t.trace then
    Trace.instant_d t.trace ~rank:src ~cat:"sim" ~name:"send_meta" ~a:tag ~b:seq ~c:context
      ~d:(if sync then 1 else 0);
  let matched = Mailbox.deliver t.mailboxes.(dst) m in
  if not matched then begin
    Stats.incr t.metrics.msgs_unexpected;
    Stats.observe_int t.metrics.queue_depth
      (Mailbox.unexpected_depth t.mailboxes.(dst))
  end;
  bump_progress t;
  m

(* Receiver-side completion accounting for a matched message: jump to the
   arrival time and pay the receive overhead.  The unpack cost itself is
   charged separately via [charge_copy] (or measured). *)
let complete_receive t rank (m : Message.t) =
  (* Reliable-layer backstop: verify the payload CRC stamped at injection.
     Only corrupted payloads that the chaos plane chose to deliver
     ([deliver_corrupt]) can reach this point with a mismatch. *)
  (if m.Message.crc >= 0 && not m.Message.consumed then begin
     let got =
       Wire.crc32 m.Message.payload ~pos:m.Message.payload_off
         ~len:m.Message.payload_len
     in
     if got <> m.Message.crc then begin
       if Check.enabled t.check then
         Check.on_crc_mismatch t.check ~rank ~src:m.Message.src
           ~expected:m.Message.crc ~got
       else
         Errdefs.mpi_error (Errdefs.Err_other "ERR_DATA_CORRUPT")
           "recv: payload CRC mismatch on message from rank %d" m.Message.src
     end
   end);
  let arrival = Message.time m.Message.arrival_stamp in
  let was_waiting = arrival > t.clocks.(rank) in
  sync_clock t rank arrival;
  (* Consumed-at latency: how long after the sender released the message
     the receiver actually absorbed it (transit + queueing + skew). *)
  Stats.observe t.metrics.msg_latency
    (t.clocks.(rank) -. Message.time m.Message.sent_stamp);
  (* Lamport receive rule: merge the sender's clock, then tick. *)
  let lam = (if m.Message.lamport > t.lamport.(rank) then m.Message.lamport else t.lamport.(rank)) + 1 in
  t.lamport.(rank) <- lam;
  Trace.instant_d t.trace ~rank ~cat:"sim"
    ~name:(if was_waiting then "match_wait" else "match")
    ~a:m.Message.src ~b:m.Message.seq ~c:(Message.bytes m) ~d:lam;
  advance_clock t rank t.model.Net_model.recv_overhead;
  bump_progress t

let record t ~op ~bytes = Profiling.record t.profile ~op ~bytes

(* Wall-clock park duration, reported by the engine's scheduler hooks. *)
let observe_park_wait t seconds = Stats.observe t.metrics.park_wait seconds

(* Trace span around [f] on [rank]'s virtual timeline; a plain call when
   tracing is disabled. *)
let with_span t rank ~cat ~name f = Trace.with_span t.trace ~rank ~cat ~name f

let max_clock t = Array.fold_left Float.max 0. t.clocks

let lamport_clock t rank = t.lamport.(rank)
