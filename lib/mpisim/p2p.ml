(* Point-to-point communication.

   Sends are eager (buffered): the payload is packed and injected
   immediately, so a blocking [send] never deadlocks against another send.
   [ssend] is synchronous: it completes only once the receiver has matched
   the message — the property the NBX sparse all-to-all algorithm (§V-A)
   depends on.

   Receives may be dynamic ([recv] allocates an exact-size buffer from the
   matched message) or MPI-style ([recv_into] with truncation checking).

   Every send form goes through [check_send] and [inject]; every receive
   form — blocking, nonblocking, persistent — through one
   [post], one wake rule ([Comm.matched_or_gone]) and one
   [complete], and keeps only its own unpack step (DESIGN.md §4).  A
   blocking receive posts in two halves: a message already queued is
   taken and finished with no posted record ([take], [finish]).

   All functions operate in communicator ranks; translation to world ranks
   happens here. *)

let any_source = Mailbox.any_source

let any_tag = Mailbox.any_tag

let first_window_op = Coll_algo.first_window_op

let check_alive_self comm = Runtime.check_alive (Comm.runtime comm) (Comm.world_rank comm)

let check_dest_alive comm ~op dest =
  let w = Comm.world_of_rank comm dest in
  if Runtime.is_failed (Comm.runtime comm) w then
    Comm.error comm Errdefs.Err_proc_failed "%s: destination rank %d has failed" op dest

let check_revoked comm ~op =
  if Comm.is_revoked comm then
    Comm.error comm Errdefs.Err_revoked "%s: communicator revoked" op

let check_committed (dt : 'a Datatype.t) ~op =
  if not (Datatype.is_committed dt) then
    Errdefs.usage_error "%s: datatype %s is not committed" op (Datatype.name dt)

let check_range ~op ~pos ~count len =
  if count < 0 || pos < 0 || pos + count > len then
    Errdefs.usage_error "%s: invalid range (pos %d, count %d, len %d)" op pos count len

(* Trace span around a blocking point-to-point operation.  Eager sends are
   not wrapped (the runtime's "send" instant already marks them); blocking
   receives, synchronous sends and probes are where virtual time is spent.
   Callers test [tracing] first and call the operation directly when it
   is off, so the untraced path builds no closure. *)
let tracing comm = Trace.enabled (Comm.runtime comm).Runtime.trace

let traced comm ~op f =
  Runtime.with_span (Comm.runtime comm) (Comm.world_rank comm) ~cat:"p2p" ~name:op f

(* Sanitizer hooks.  All are guarded on the checker's level at the call
   site so the off path is one load and branch, no allocation.

   The waiting table feeds the deadlock wait-for graph: an entry is set
   just before a fiber parks on a blocking operation and cleared on normal
   resume.  Error paths deliberately leave the entry in place — when the
   scheduler aborts parked fibers on deadlock, the stale entries are
   exactly the data the cycle report needs. *)
let checker comm = (Comm.runtime comm).Runtime.check

let clear_waiting comm = Check.clear_waiting (checker comm) ~rank:(Comm.world_rank comm)

let inflight comm = (Comm.runtime comm).Runtime.inflight.(Comm.world_rank comm)

(* The ops every message is profiled under, each with a slot in its
   run's profile ([Profiling.op]): a message hashes no op name. *)
let op_send = Profiling.op "send"

let op_ssend = Profiling.op "ssend"

let op_isend = Profiling.op "isend"

let op_issend = Profiling.op "issend"

let op_recv = Profiling.op "recv"

let op_irecv = Profiling.op "irecv"

let op_probe = Profiling.op "probe"

let op_iprobe = Profiling.op "iprobe"

let record comm op ~bytes =
  Profiling.record_op (Comm.runtime comm).Runtime.profile op ~bytes

(* ------------------------------------------------------------------ *)
(* Sends *)

(* Entry checks of every send.  Internal collective traffic (reserved
   tags) is exempt from the revocation check: the collective already
   checked at entry, and its in-flight exchanges must be allowed to drain
   after a revoke. *)
let check_send comm ~op ~dest ~tag =
  check_alive_self comm;
  if tag <= Comm.max_user_tag then check_revoked comm ~op;
  check_dest_alive comm ~op dest

(* Hand the payload slice [payload, off, len) to the transport as a
   message of [count] elements of [signature], and profile it under [op].
   Returns the in-flight message.

   Zero-copy plane: the slice's storage is transferred into the message
   — a pooled writer's, or a forwarded message's — with no copy.  The
   storage returns to a pool when the receiver finishes unpacking
   ([Runtime.recycle_payload]). *)
let inject comm ~op ~dest ~tag ~sync ~signature ~count ~payload ~off ~len =
  let msg =
    Runtime.inject (Comm.runtime comm) ~context:(Comm.context comm)
      ~src:(Comm.world_rank comm) ~dst:(Comm.world_of_rank comm dest) ~tag ~payload
      ~payload_off:off ~payload_len:len ~count ~signature ~sync
  in
  record comm op ~bytes:len;
  msg

let writer_capacity dt ~count = Int.max 8 (Datatype.size_of_count dt count)

(* The typed send: checks, pack [count] elements of [data] from [pos] into
   a pooled writer (charging the copy), inject. *)
let send_typed comm (dt : 'a Datatype.t) ~op ~dest ~tag ~sync (data : 'a array) ~pos
    ~count =
  check_send comm ~op:(Profiling.op_name op) ~dest ~tag;
  check_committed dt ~op:(Profiling.op_name op);
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let w = Runtime.acquire_writer rt me ~capacity:(writer_capacity dt ~count) in
  Datatype.pack_array dt w data ~pos ~count;
  Runtime.charge_copy rt me ~bytes:(Wire.length w);
  inject comm ~op ~dest ~tag ~sync ~signature:dt.Datatype.signature ~count
    ~payload:(Wire.writer_storage w) ~off:0 ~len:(Wire.length w)

let send_range comm dt ~dest ~tag (data : 'a array) ~pos ~count =
  Comm.check_rank comm dest;
  ignore (send_typed comm dt ~op:op_send ~dest ~tag ~sync:false data ~pos ~count)

let send comm dt ~dest ?(tag = 0) (data : 'a array) =
  Comm.check_user_tag comm tag;
  send_range comm dt ~dest ~tag data ~pos:0 ~count:(Array.length data)

(* Send the packed elements [payload, off, len) on as they are, as
   [count] elements of [dt]: the slice passes to the new message without
   a copy.  The bytes are the ones packing the elements would write, so
   this charges, injects and records exactly what that [send_range]
   would; only the host's pack is saved. *)
let send_slice comm (dt : 'a Datatype.t) ~dest ~tag ~count payload ~off ~len =
  Comm.check_rank comm dest;
  check_send comm ~op:(Profiling.op_name op_send) ~dest ~tag;
  check_committed dt ~op:(Profiling.op_name op_send);
  Runtime.charge_copy (Comm.runtime comm) (Comm.world_rank comm) ~bytes:len;
  ignore
    (inject comm ~op:op_send ~dest ~tag ~sync:false ~signature:dt.Datatype.signature ~count
       ~payload ~off ~len)

(* Send a copy of the packed elements [payload, off, len) as [count]
   elements of [dt], for a payload that goes to more than one rank: it
   charges, injects and records what packing the elements with
   [send_range] would, and the host copies bytes where packing would run
   the type's encoder again. *)
let send_packed comm (dt : 'a Datatype.t) ~dest ~tag ~count payload ~off ~len =
  Comm.check_rank comm dest;
  check_send comm ~op:(Profiling.op_name op_send) ~dest ~tag;
  check_committed dt ~op:(Profiling.op_name op_send);
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let w = Runtime.acquire_writer rt me ~capacity:(Int.max 8 len) in
  Wire.put_bytes w payload ~pos:off ~len;
  Runtime.charge_copy rt me ~bytes:len;
  ignore
    (inject comm ~op:op_send ~dest ~tag ~sync:false ~signature:dt.Datatype.signature ~count
       ~payload:(Wire.writer_storage w) ~off:0 ~len)

let issend_request comm (msg : Message.t) =
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  Request.make
    ~ready:(fun () -> Message.is_matched msg)
    ~finalize:(fun () ->
      Runtime.sync_to_ack rt me msg;
      Status.make ~source:(Comm.rank comm) ~tag:msg.Message.tag ~count:msg.Message.count
        ~bytes:(Message.bytes msg))
    ~describe:(fun () -> Format.asprintf "issend %a" Message.pp msg)
    (inflight comm)

(* The user-level sends of a whole array: tag and rank checked. *)
let send_user comm dt ~op ~dest ~tag ~sync (data : 'a array) =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  send_typed comm dt ~op ~dest ~tag ~sync data ~pos:0 ~count:(Array.length data)

let ssend comm dt ~dest ?(tag = 0) (data : 'a array) =
  let msg = send_user comm dt ~op:op_ssend ~dest ~tag ~sync:true data in
  let chk = checker comm in
  if Check.enabled chk then
    Check.set_waiting chk ~rank:(Comm.world_rank comm)
      (Check.Wssend { dst = Comm.world_of_rank comm dest; tag; op = "ssend" });
  ignore (Request.wait (issend_request comm msg));
  if Check.enabled chk then clear_waiting comm

let ssend comm dt ~dest ?tag data =
  if tracing comm then traced comm ~op:"ssend" (fun () -> ssend comm dt ~dest ?tag data)
  else ssend comm dt ~dest ?tag data

let track comm ~kind req =
  let chk = checker comm in
  if Check.enabled chk then Check.track_request chk ~rank:(Comm.world_rank comm) ~kind req;
  req

let isend comm dt ~dest ?(tag = 0) (data : 'a array) =
  let msg = send_user comm dt ~op:op_isend ~dest ~tag ~sync:false data in
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let complete_at = Runtime.clock rt me in
  track comm ~kind:"isend"
    (Request.make
       ~ready:(fun () -> true)
       ~finalize:(fun () ->
         Runtime.sync_clock rt me complete_at;
         Status.make ~source:(Comm.rank comm) ~tag ~count:msg.Message.count
           ~bytes:(Message.bytes msg))
       ~describe:(fun () -> "isend")
       (inflight comm))

let issend comm dt ~dest ?(tag = 0) (data : 'a array) =
  let msg = send_user comm dt ~op:op_issend ~dest ~tag ~sync:true data in
  track comm ~kind:"issend" (issend_request comm msg)

(* ------------------------------------------------------------------ *)
(* The receive core *)

let my_mailbox comm =
  (Comm.runtime comm).Runtime.mailboxes.(Comm.world_rank comm)

let source_world comm source =
  if source = any_source then any_source
  else begin
    Comm.check_rank comm source;
    Comm.world_of_rank comm source
  end

(* Wildcard-race detection (heavy): a wildcard receive that could match
   two or more already-queued messages is resolved by arrival order, i.e.
   by the schedule.  Receives that park and match on delivery see exactly
   one candidate, so probing the queue just before posting captures every
   ambiguous match. *)
let note_wildcard comm ~src_world ~tag =
  if src_world = any_source || tag = any_tag then begin
    let eligible =
      Mailbox.count_eligible (my_mailbox comm) ~context:(Comm.context comm) ~src:src_world
        ~tag
    in
    if eligible >= 2 then
      Check.on_wildcard_match (checker comm) ~rank:(Comm.world_rank comm) ~src:src_world
        ~tag ~eligible
  end

(* Analyzer-mode instants: which receive was posted with which pattern
   ("post": a=src b=tag c=ctx d=post id) and which message it finally
   matched ("matched": a=post id, b=msg seq, c=ctx, d=actual src).  Only
   emitted into stream captures (the analyzer's input), so ring traces
   keep their exact event mix; otherwise each is one branch. *)
let note_post comm ~src_world ~tag ~id =
  let rt = Comm.runtime comm in
  if Trace.is_streaming rt.Runtime.trace then
    Trace.instant_d rt.Runtime.trace ~rank:(Comm.world_rank comm) ~cat:"sim" ~name:"post"
      ~a:src_world ~b:tag ~c:(Comm.context comm) ~d:id

let note_matched comm ~id (msg : Message.t) =
  let rt = Comm.runtime comm in
  if Trace.is_streaming rt.Runtime.trace then
    Trace.instant_d rt.Runtime.trace ~rank:(Comm.world_rank comm) ~cat:"sim"
      ~name:"matched" ~a:id ~b:msg.Message.seq ~c:(Comm.context comm) ~d:msg.Message.src

(* The one post, whole ([post]) or in the halves of a blocking receive
   ([take], then [enqueue] if nothing was taken): the receiver must be
   alive; the heavy sanitizer notes a wildcard that could match several
   queued messages; the receive takes a queued match at once or enters
   the mailbox, at this rank's clock. *)
let check_post comm ~src_world ~tag =
  let rt = Comm.runtime comm in
  Runtime.check_alive rt (Comm.world_rank comm);
  if Check.heavy rt.Runtime.check then note_wildcard comm ~src_world ~tag

let clock_stamp comm = Runtime.clock_stamp (Comm.runtime comm) (Comm.world_rank comm)

let post comm ~src_world ~tag =
  check_post comm ~src_world ~tag;
  let p =
    Mailbox.post_at (my_mailbox comm) ~context:(Comm.context comm) ~src:src_world ~tag
      ~clock:(clock_stamp comm)
  in
  note_post comm ~src_world ~tag ~id:p.Mailbox.p_id;
  p

(* The queued message a blocking receive takes with no record, or
   [Message.nil]. *)
let take comm ~src_world ~tag =
  check_post comm ~src_world ~tag;
  let mb = my_mailbox comm in
  let msg =
    Mailbox.take mb ~context:(Comm.context comm) ~src:src_world ~tag
      ~clock:(clock_stamp comm)
  in
  if msg != Message.nil then note_post comm ~src_world ~tag ~id:(Mailbox.last_posted_id mb);
  msg

let enqueue comm ~src_world ~tag =
  let p =
    Mailbox.enqueue (my_mailbox comm) ~context:(Comm.context comm) ~src:src_world ~tag
      ~clock:(clock_stamp comm)
  in
  note_post comm ~src_world ~tag ~id:p.Mailbox.p_id;
  p

(* The error of a receive or probe whose source is gone. *)
let gone comm ~op ~src_world =
  if Comm.revoked_for comm ~src_world then
    Comm.error comm Errdefs.Err_revoked "%s: communicator revoked" op
  else Comm.error comm Errdefs.Err_proc_failed "%s: source rank has failed" op

(* Block a receive or probe until [ready] holds; the sanitizer's
   wait-for graph sees it meanwhile. *)
let block_recv comm ~op ~src_world ~tag ~describe ready =
  let chk = checker comm in
  if Check.enabled chk then
    Check.set_waiting chk ~rank:(Comm.world_rank comm)
      (Check.Wrecv { src = src_world; tag; ctx = Comm.context comm; op });
  Request.block (inflight comm) ~describe ~ready;
  if Check.enabled chk then clear_waiting comm

(* Park a blocking receive until its match or a gone source, on the
   handle's receive closures: no closure is built. *)
let await comm ~op ~src_world (p : Mailbox.posted) =
  if not (Comm.matched_or_gone comm ~src_world p) then begin
    let w = comm.Comm.wait in
    w.posted <- p;
    w.src_world <- src_world;
    w.op <- Profiling.op_name op;
    block_recv comm ~op:(Profiling.op_name op) ~src_world ~tag:p.Mailbox.p_tag
      ~describe:comm.Comm.recv_describe comm.Comm.recv_ready
  end

(* The receiver's [count] elements of [signature] against the message's:
   both sides carry per-element signatures, so a match is one comparison
   and the full signatures are only built for the error report. *)
let check_signature comm ~signature (msg : Message.t) ~op =
  if not (Signature.repeats_match signature msg.Message.signature msg.Message.count) then
    Comm.error comm Errdefs.Err_type
      "%s: type signature mismatch: receiving as %s but message from rank %d has %s" op
      (Signature.to_string (Signature.repeat signature msg.Message.count))
      msg.Message.src
      (Signature.to_string (Message.payload_signature msg))

(* The accounting of a matched receive, whichever way it matched: it is
   checked against [maxcount] and the receiver's element [signature], and
   accounted for (clock, copy charge, profile entry under [op]).  Returns
   the message; the caller unpacks it and recycles its payload. *)
let finish comm ~op ~signature ~maxcount ~id (msg : Message.t) =
  note_matched comm ~id msg;
  if msg.Message.count > maxcount then
    Comm.error comm Errdefs.Err_truncate
      "%s: message of %d elements truncated to buffer of %d" (Profiling.op_name op)
      msg.Message.count maxcount;
  check_signature comm ~signature msg ~op:(Profiling.op_name op);
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  Runtime.complete_receive rt me msg;
  Runtime.charge_copy rt me ~bytes:(Message.bytes msg);
  record comm op ~bytes:(Message.bytes msg);
  msg

(* The one completion of a woken posted receive: a gone source cancels it
   and raises; a match is retired and finished. *)
let complete comm ~op ~signature ~maxcount ~src_world (p : Mailbox.posted) =
  let mb = my_mailbox comm in
  let msg = p.Mailbox.p_msg in
  if msg == Message.nil then begin
    Mailbox.cancel mb p;
    gone comm ~op:(Profiling.op_name op) ~src_world
  end;
  Mailbox.retire mb p;
  finish comm ~op ~signature ~maxcount ~id:p.Mailbox.p_id msg

(* A blocking receive: a queued match is taken and finished at once, with
   no posted record; otherwise post, wait, complete. *)
let receive comm ~op ~signature ~maxcount ~source ~tag =
  let src_world = source_world comm source in
  let msg = take comm ~src_world ~tag in
  if msg != Message.nil then
    finish comm ~op ~signature ~maxcount ~id:(Mailbox.last_posted_id (my_mailbox comm)) msg
  else begin
    let p = enqueue comm ~src_world ~tag in
    await comm ~op ~src_world p;
    complete comm ~op ~signature ~maxcount ~src_world p
  end

let status_of_msg comm (msg : Message.t) =
  Status.make
    ~source:(Comm.rank_of_world comm msg.Message.src)
    ~tag:msg.Message.tag ~count:msg.Message.count ~bytes:(Message.bytes msg)

(* The unpack steps, straight from the payload slice: into a fresh array,
   or into a range of caller storage; the receives recycle the payload
   afterwards ([release]). *)
let release comm (msg : Message.t) = Runtime.recycle_payload (Comm.runtime comm) msg

let read_fresh dt (msg : Message.t) =
  Message.check_live msg ~op:"P2p.recv";
  Datatype.unpack_slice_array dt msg.Message.payload ~off:msg.Message.payload_off
    ~len:msg.Message.payload_len ~count:msg.Message.count

let unpack_fresh comm dt (msg : Message.t) =
  let data = read_fresh dt msg in
  release comm msg;
  data

let read_into dt (msg : Message.t) into ~pos =
  Message.check_live msg ~op:"P2p.recv_into";
  Datatype.unpack_slice_into dt msg.Message.payload ~off:msg.Message.payload_off
    ~len:msg.Message.payload_len into ~pos ~count:msg.Message.count

let unpack_into comm dt msg into ~pos =
  read_into dt msg into ~pos;
  release comm msg

(* Storage several ranks read (DESIGN.md §4): a ring's block, passed
   from rank to rank as one payload slice.  Its packer writes the number
   of readers into the [shared_trailer] bytes after the payload; each
   reader gives up its claim once it has written the elements out, and
   the claim that takes the count to zero returns the storage to the
   pool of world rank [home]. *)
let shared_trailer = 8

let set_readers (storage : Bytes.t) ~at n = Bytes.set_int64_le storage at (Int64.of_int n)

let release_shared comm (storage : Bytes.t) ~at ~home =
  let left = Int64.to_int (Bytes.get_int64_le storage at) - 1 in
  set_readers storage ~at left;
  if left = 0 then Wire.recycle (Comm.runtime comm).Runtime.wire_pools.(home) storage

(* Fold the payload into [acc] from [pos] (DESIGN.md §6.1); the message
   keeps its slice. *)
let fold_into dt op ~incoming_left (msg : Message.t) acc ~pos =
  Message.check_live msg ~op:"P2p.fold_into";
  Datatype.fold_slice dt op ~incoming_left msg.Message.payload
    ~off:msg.Message.payload_off ~len:msg.Message.payload_len acc ~pos
    ~count:msg.Message.count

(* ------------------------------------------------------------------ *)
(* Receives *)

(* Dynamic receive: allocates an exact-size result from the message. *)
let recv comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag) () :
    'a array * Status.t =
  let msg =
    receive comm ~op:op_recv ~signature:dt.Datatype.signature ~maxcount:max_int ~source ~tag
  in
  let status = status_of_msg comm msg in
  (unpack_fresh comm dt msg, status)

let recv comm dt ?source ?tag () =
  if tracing comm then traced comm ~op:"recv" (fun () -> recv comm dt ?source ?tag ())
  else recv comm dt ?source ?tag ()

(* [recv] without the status, for callers that would drop it: the same
   operation, span and profile entry, minus the status and the pair.
   [recv_fresh] takes every argument, as internal protocols call it. *)
let recv_fresh comm (dt : 'a Datatype.t) ~source ~tag : 'a array =
  let signature = dt.Datatype.signature in
  unpack_fresh comm dt (receive comm ~op:op_recv ~signature ~maxcount:max_int ~source ~tag)

let recv_fresh comm dt ~source ~tag =
  if tracing comm then traced comm ~op:"recv" (fun () -> recv_fresh comm dt ~source ~tag)
  else recv_fresh comm dt ~source ~tag

let recv_array comm dt ?(source = any_source) ?(tag = any_tag) () =
  recv_fresh comm dt ~source ~tag

(* MPI-style receive into a caller-provided buffer: the message, unpacked
   and recycled. *)
let receive_into comm (dt : 'a Datatype.t) ~source ~tag ~pos ~maxcount (into : 'a array) =
  check_range ~op:"recv_into" ~pos ~count:maxcount (Array.length into);
  let signature = dt.Datatype.signature in
  let msg = receive comm ~op:op_recv ~signature ~maxcount ~source ~tag in
  unpack_into comm dt msg into ~pos;
  msg

let recv_into comm dt ~source ~tag ~pos ~maxcount into =
  status_of_msg comm (receive_into comm dt ~source ~tag ~pos ~maxcount into)

let recv_into comm dt ?(source = any_source) ?(tag = any_tag) ?(pos = 0) ?maxcount into =
  let maxcount = match maxcount with Some c -> c | None -> Array.length into - pos in
  if tracing comm then
    traced comm ~op:"recv_into" (fun () ->
        recv_into comm dt ~source ~tag ~pos ~maxcount into)
  else recv_into comm dt ~source ~tag ~pos ~maxcount into

(* A collective's receive step up to its payload: the matched message,
   checked against [maxcount] and the element type and accounted, with
   [recv_into]'s span and profile entry and no status.  The caller reads
   or folds the payload, then recycles it ([release]) or sends its slice
   on ([send_slice]). *)
let recv_message comm (dt : 'a Datatype.t) ~source ~tag ~maxcount =
  receive comm ~op:op_recv ~signature:dt.Datatype.signature ~maxcount ~source ~tag

let recv_message comm dt ~source ~tag ~maxcount =
  if tracing comm then
    traced comm ~op:"recv_into" (fun () -> recv_message comm dt ~source ~tag ~maxcount)
  else recv_message comm dt ~source ~tag ~maxcount

(* The oldest queued message a receive for (source, tag) would take. *)
let queued comm ~src_world ~tag =
  Mailbox.find_unexpected ~remove:false (my_mailbox comm) ~context:(Comm.context comm)
    ~src:src_world ~tag

(* The wake rule for a receive not yet posted, for an exact (source,
   tag), without allocating: a queued match — with [arrived], one that
   reached the mailbox by this rank's virtual clock — or a gone source.
   It is the wake poll of a blocked rank's schedules. *)
let matchable comm ~arrived ~source ~tag =
  let src_world = Comm.world_of_rank comm source in
  Comm.source_gone comm ~src_world
  ||
  match
    Mailbox.head_exact (my_mailbox comm) ~context:(Comm.context comm) ~src:src_world ~tag
  with
  | msg -> (not arrived) || Runtime.arrived (Comm.runtime comm) (Comm.world_rank comm) msg
  | exception Not_found -> false

(* A nonblocking receive, posted now: [wait]/[test] complete it once
   matched or its source is gone, and [unpack] takes the matched
   message. *)
let irecv_request comm ~source ~tag ~signature ~maxcount unpack =
  let src_world = source_world comm source in
  let p = post comm ~src_world ~tag in
  track comm ~kind:"irecv"
    (Request.make
       ~ready:(fun () -> Comm.matched_or_gone comm ~src_world p)
       ~finalize:(fun () ->
         let msg = complete comm ~op:op_irecv ~signature ~maxcount ~src_world p in
         let status = status_of_msg comm msg in
         unpack msg;
         status)
       ~describe:(fun () ->
         Printf.sprintf "irecv on rank %d (src %d, tag %d)" (Comm.rank comm) source tag)
       (inflight comm))

(* Non-blocking receive into a caller-provided buffer. *)
let irecv_into comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag)
    ?(pos = 0) ?maxcount (into : 'a array) : Request.t =
  let maxcount = match maxcount with Some c -> c | None -> Array.length into - pos in
  check_range ~op:"irecv" ~pos ~count:maxcount (Array.length into);
  irecv_request comm ~source ~tag ~signature:dt.Datatype.signature ~maxcount (fun msg ->
      unpack_into comm dt msg into ~pos)

(* A non-blocking receive whose buffer is allocated at completion time from
   the matched message — the substrate for the binding layer's
   ownership-safe non-blocking results (§III-E). *)
let irecv comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag) () :
    Request.t * 'a array option ref =
  let cell = ref None in
  let req =
    irecv_request comm ~source ~tag ~signature:dt.Datatype.signature ~maxcount:max_int
      (fun msg -> cell := Some (unpack_fresh comm dt msg))
  in
  (req, cell)

(* ------------------------------------------------------------------ *)
(* Probing *)

(* A queued match wins over a gone source, as in [probe]; with none, a
   gone source raises rather than leave a poll loop spinning. *)
let iprobe comm ?(source = any_source) ?(tag = any_tag) () : Status.t option =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  record comm op_iprobe ~bytes:0;
  let src_world = source_world comm source in
  match queued comm ~src_world ~tag with
  | None ->
      if Comm.source_gone comm ~src_world then gone comm ~op:"iprobe" ~src_world else None
  | Some msg ->
      (* Probing observes the message only once it has arrived. *)
      Runtime.sync_to_arrival rt (Comm.world_rank comm) msg;
      Some (status_of_msg comm msg)

(* A probe waits like a receive that is never posted: until a match is
   queued or the source is gone. *)
let probe comm ?(source = any_source) ?(tag = any_tag) () : Status.t =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  record comm op_probe ~bytes:0;
  let src_world = source_world comm source in
  let w = comm.Comm.wait in
  w.src_world <- src_world;
  w.source <- source;
  w.tag <- tag;
  if not (comm.Comm.probe_ready ()) then
    block_recv comm ~op:"probe" ~src_world ~tag ~describe:comm.Comm.probe_describe
      comm.Comm.probe_ready;
  match queued comm ~src_world ~tag with
  | None -> gone comm ~op:"probe" ~src_world
  | Some msg ->
      Runtime.sync_to_arrival rt (Comm.world_rank comm) msg;
      status_of_msg comm msg

let probe comm ?source ?tag () =
  if tracing comm then traced comm ~op:"probe" (fun () -> probe comm ?source ?tag ())
  else probe comm ?source ?tag ()

(* Combined send+receive, deadlock-free because sends are eager. *)
let sendrecv comm dt ~dest ?(send_tag = 0) ~source ?(recv_tag = any_tag) (data : 'a array)
    : 'a array * Status.t =
  send comm dt ~dest ~tag:send_tag data;
  recv comm dt ~source ~tag:recv_tag ()

(* ------------------------------------------------------------------ *)
(* Persistent operations (MPI-4 MPI_Send_init / MPI_Recv_init)

   Everything a cycle does not strictly need is hoisted to init: argument
   validation, rank translation, and a pre-warmed pooled writer large
   enough for the payload.  A cycle then runs the ad-hoc send or receive
   core and completes with MPI's empty status: what it allocates is the
   transport's own (DESIGN.md §9.1 itemizes the words). *)

let send_init comm (dt : 'a Datatype.t) ~dest ?(tag = 0) (data : 'a array) ~pos ~count =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  check_range ~op:"send_init" ~pos ~count (Array.length data);
  check_committed dt ~op:"send_init";
  Runtime.preheat_writer (Comm.runtime comm) (Comm.world_rank comm)
    ~capacity:(writer_capacity dt ~count);
  let start () =
    ignore (send_typed comm dt ~op:op_send ~dest ~tag ~sync:false data ~pos ~count)
  in
  (* Eager send: injected at [start], so the cycle is complete immediately. *)
  Request.make ~start
    ~ready:(fun () -> true)
    ~finalize:(fun () -> Status.empty)
    ~describe:(fun () -> "send_init")
    (inflight comm)

let recv_init comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag)
    ?(pos = 0) ?maxcount (into : 'a array) =
  let maxcount = match maxcount with Some c -> c | None -> Array.length into - pos in
  check_range ~op:"recv_init" ~pos ~count:maxcount (Array.length into);
  check_committed dt ~op:"recv_init";
  let src_world = source_world comm source in
  let signature = dt.Datatype.signature in
  let posted = ref Mailbox.no_posted in
  let start () = posted := post comm ~src_world ~tag in
  let cycle_ready () =
    !posted == Mailbox.no_posted || Comm.matched_or_gone comm ~src_world !posted
  in
  let finalize () =
    let p = !posted in
    if p != Mailbox.no_posted then begin
      posted := Mailbox.no_posted;
      let msg = complete comm ~op:op_recv ~signature ~maxcount ~src_world p in
      unpack_into comm dt msg into ~pos
    end;
    Status.empty
  in
  Request.make ~start ~ready:cycle_ready ~finalize
    ~describe:(fun () -> "recv_init")
    (inflight comm)
