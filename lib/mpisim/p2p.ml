(* Point-to-point communication.

   Sends are eager (buffered): the payload is packed and injected
   immediately, so a blocking [send] never deadlocks against another send.
   [ssend] is synchronous: it completes only once the receiver has matched
   the message — the property the NBX sparse all-to-all algorithm (§V-A)
   depends on.

   Receives may be dynamic ([recv] allocates an exact-size buffer from the
   matched message) or MPI-style ([recv_into] with truncation checking).

   All functions operate in communicator ranks; translation to world ranks
   happens here. *)

let any_source = Mailbox.any_source

let any_tag = Mailbox.any_tag

(* Internal tag space for collective algorithms. *)
let internal_tag op_id = Comm.max_user_tag + 1 + op_id

let check_alive_self comm = Runtime.check_alive (Comm.runtime comm) (Comm.world_rank comm)

let check_dest_alive comm ~op dest =
  let w = Comm.world_of_rank comm dest in
  if Runtime.is_failed (Comm.runtime comm) w then
    Comm.error comm Errdefs.Err_proc_failed "%s: destination rank %d has failed" op dest

let check_revoked comm ~op =
  if Comm.is_revoked comm then
    Comm.error comm Errdefs.Err_revoked "%s: communicator revoked" op

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

let set_waiting_recv comm ~op ~src_world ~tag =
  Check.set_waiting (checker comm) ~rank:(Comm.world_rank comm)
    (Check.Wrecv { src = src_world; tag; ctx = Comm.context comm; op })

let clear_waiting comm = Check.clear_waiting (checker comm) ~rank:(Comm.world_rank comm)

(* Pack [count] elements of [data] starting at [pos] and inject the message.
   Returns the in-flight message.

   Zero-copy plane: the pack goes into a pooled per-rank writer, and the
   writer's storage is transferred into the message via [unsafe_contents]
   — no [Wire.contents] copy.  The storage returns to a pool when the
   receiver finishes unpacking ([Runtime.recycle_payload]). *)
let inject_message comm (dt : 'a Datatype.t) ~op ~dest ~tag ~sync (data : 'a array) ~pos
    ~count =
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  check_alive_self comm;
  (* Internal collective traffic (reserved tags) is exempt from the
     revocation entry check: the collective already checked at entry, and
     its in-flight exchanges must be allowed to drain after a revoke. *)
  if tag <= Comm.max_user_tag then check_revoked comm ~op;
  check_dest_alive comm ~op dest;
  if not (Datatype.is_committed dt) then
    Errdefs.usage_error "%s: datatype %s is not committed" op (Datatype.name dt);
  let w = Runtime.acquire_writer rt me ~capacity:(max 8 (Datatype.size_of_count dt count)) in
  Datatype.pack_array dt w data ~pos ~count;
  let payload_len = Wire.length w in
  Runtime.charge_copy rt me ~bytes:payload_len;
  let msg =
    Runtime.inject rt ~context:(Comm.context comm) ~src:me
      ~dst:(Comm.world_of_rank comm dest) ~tag ~payload:(Wire.writer_storage w) ~payload_off:0
      ~payload_len ~count ~signature:dt.Datatype.signature ~sync
  in
  Runtime.record rt ~op ~bytes:payload_len;
  msg

let send_range comm dt ~dest ?(tag = 0) (data : 'a array) ~pos ~count =
  Comm.check_rank comm dest;
  ignore (inject_message comm dt ~op:"send" ~dest ~tag ~sync:false data ~pos ~count)

let send comm dt ~dest ?(tag = 0) (data : 'a array) =
  Comm.check_user_tag comm tag;
  send_range comm dt ~dest ~tag data ~pos:0 ~count:(Array.length data)

(* Completion time of a synchronous send: the match time plus the latency
   of the (modelled) acknowledgement. *)
let ssend_complete_time rt (msg : Message.t) =
  msg.Message.matched_time +. Net_model.transit_time rt.Runtime.model

let issend_request comm (msg : Message.t) =
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  Request.make
    ~ready:(fun () -> Message.is_matched msg)
    ~finalize:(fun () ->
      Runtime.sync_clock rt me (ssend_complete_time rt msg);
      Status.make ~source:(Comm.rank comm) ~tag:msg.Message.tag ~count:msg.Message.count
        ~bytes:(Message.bytes msg))
    ~describe:(fun () -> Format.asprintf "issend %a" Message.pp msg)

let ssend comm dt ~dest ?(tag = 0) (data : 'a array) =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  let msg =
    inject_message comm dt ~op:"ssend" ~dest ~tag ~sync:true data ~pos:0
      ~count:(Array.length data)
  in
  let chk = checker comm in
  if Check.enabled chk then
    Check.set_waiting chk ~rank:(Comm.world_rank comm)
      (Check.Wssend { dst = Comm.world_of_rank comm dest; tag; op = "ssend" });
  ignore (Request.wait (issend_request comm msg));
  if Check.enabled chk then clear_waiting comm

let ssend comm dt ~dest ?tag data =
  if tracing comm then traced comm ~op:"ssend" (fun () -> ssend comm dt ~dest ?tag data)
  else ssend comm dt ~dest ?tag data

let isend comm dt ~dest ?(tag = 0) (data : 'a array) =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  let count = Array.length data in
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let msg = inject_message comm dt ~op:"isend" ~dest ~tag ~sync:false data ~pos:0 ~count in
  let complete_at = Runtime.clock rt me in
  let req =
    Request.make
      ~ready:(fun () -> true)
      ~finalize:(fun () ->
        Runtime.sync_clock rt me complete_at;
        Status.make ~source:(Comm.rank comm) ~tag ~count ~bytes:(Message.bytes msg))
      ~describe:(fun () -> "isend")
  in
  if Check.enabled rt.Runtime.check then
    Check.track_request rt.Runtime.check ~rank:me ~kind:"isend" req;
  req

let issend comm dt ~dest ?(tag = 0) (data : 'a array) =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  let msg =
    inject_message comm dt ~op:"issend" ~dest ~tag ~sync:true data ~pos:0
      ~count:(Array.length data)
  in
  let req = issend_request comm msg in
  let chk = checker comm in
  if Check.enabled chk then
    Check.track_request chk ~rank:(Comm.world_rank comm) ~kind:"issend" req;
  req

(* ------------------------------------------------------------------ *)
(* Receives *)

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
let note_post comm (p : Mailbox.posted) =
  let rt = Comm.runtime comm in
  if Trace.is_streaming rt.Runtime.trace then
    Trace.instant_d rt.Runtime.trace ~rank:(Comm.world_rank comm) ~cat:"sim" ~name:"post"
      ~a:p.Mailbox.p_src ~b:p.Mailbox.p_tag ~c:p.Mailbox.p_context ~d:p.Mailbox.p_id

let note_matched comm (p : Mailbox.posted) (msg : Message.t) =
  let rt = Comm.runtime comm in
  if Trace.is_streaming rt.Runtime.trace then
    Trace.instant_d rt.Runtime.trace ~rank:(Comm.world_rank comm) ~cat:"sim"
      ~name:"matched" ~a:p.Mailbox.p_id ~b:msg.Message.seq ~c:p.Mailbox.p_context
      ~d:msg.Message.src

(* The receiver's [count] elements of [dt] against the message's: both
   sides carry per-element signatures, so a match is one comparison and
   the full signatures are only built for the error report. *)
let check_signature comm (dt : 'a Datatype.t) (msg : Message.t) ~op =
  if not (Signature.repeats_match dt.Datatype.signature msg.Message.signature msg.Message.count)
  then
    Comm.error comm Errdefs.Err_type
      "%s: type signature mismatch: receiving as %s but message from rank %d has %s" op
      (Signature.to_string (Datatype.signature_of_count dt msg.Message.count))
      msg.Message.src
      (Signature.to_string (Message.payload_signature msg))

(* A revoked communicator only aborts a pending receive once the source
   has itself observed the revocation (or died, or is a wildcard): until
   then the source may still complete the in-flight exchange, and waking
   early would tear down collectives that could drain. *)
let revocation_abort comm ~src_world (p : Mailbox.posted) =
  p.Mailbox.p_msg = None
  && Comm.revoked_flag comm
  && (src_world = any_source || Comm.revocation_reached comm ~world:src_world)

(* When a receiver parked on [p] must wake: its match, its source's
   failure or an observed revocation. *)
let posted_ready comm ~src_world (p : Mailbox.posted) =
  p.Mailbox.p_msg <> None
  || (src_world <> any_source && Runtime.is_failed (Comm.runtime comm) src_world)
  || revocation_abort comm ~src_world p

(* The slow path of [await_posted]: park until the receive is ready. *)
let await_unmatched comm ~op ~src_world (p : Mailbox.posted) =
  if not (posted_ready comm ~src_world p) then begin
    if Check.enabled (checker comm) then
      set_waiting_recv comm ~op ~src_world ~tag:p.Mailbox.p_tag;
    Scheduler.park
      ~describe:(fun () ->
        Printf.sprintf "%s on rank %d (ctx %d, src %d, tag %d)" op (Comm.rank comm)
          (Comm.context comm) p.Mailbox.p_src p.Mailbox.p_tag)
      ~poll:(fun () -> if posted_ready comm ~src_world p then Some () else None);
    if Check.enabled (checker comm) then clear_waiting comm
  end;
  match p.Mailbox.p_msg with
  | Some msg -> msg
  | None ->
      Mailbox.cancel (my_mailbox comm) p;
      if revocation_abort comm ~src_world p then
        Comm.error comm Errdefs.Err_revoked "%s: communicator revoked" op
      else
        Comm.error comm Errdefs.Err_proc_failed "%s: source rank has failed" op

(* Wait until the posted receive [p] matches, also waking on source failure.
   Returns the matched message or raises.  A receive already matched at
   post returns at once, without building the wait's closures. *)
let await_posted comm ~op ~src_world (p : Mailbox.posted) =
  match p.Mailbox.p_msg with
  | Some msg -> msg
  | None -> await_unmatched comm ~op ~src_world p

(* Post a blocking receive for (source, tag) and wait for its match;
   returns the matched message, not yet accounted for or unpacked. *)
let await_recv comm ~op ~source ~tag =
  let rt = Comm.runtime comm in
  let src_world = source_world comm source in
  let now = Runtime.clock rt (Comm.world_rank comm) in
  if Check.heavy (checker comm) then note_wildcard comm ~src_world ~tag;
  let mb = my_mailbox comm in
  let p = Mailbox.post mb ~context:(Comm.context comm) ~src:src_world ~tag ~now in
  note_post comm p;
  let msg = await_posted comm ~op ~src_world p in
  Mailbox.retire mb p;
  note_matched comm p msg;
  msg

let status_of_msg comm (msg : Message.t) =
  Status.make
    ~source:(Comm.rank_of_world comm msg.Message.src)
    ~tag:msg.Message.tag ~count:msg.Message.count ~bytes:(Message.bytes msg)

(* Account for a matched receive: signature check, clock accounting,
   profiling. *)
let finish_matched comm dt ~op (msg : Message.t) =
  let rt = Comm.runtime comm in
  check_signature comm dt msg ~op;
  Runtime.complete_receive rt (Comm.world_rank comm) msg;
  Runtime.charge_copy rt (Comm.world_rank comm) ~bytes:(Message.bytes msg);
  Runtime.record rt ~op ~bytes:(Message.bytes msg)

let complete_matched comm dt ~op (msg : Message.t) =
  finish_matched comm dt ~op msg;
  status_of_msg comm msg

(* Unpack a matched message into a fresh array and recycle its payload. *)
let unpack_fresh comm dt (msg : Message.t) =
  let data = Datatype.unpack_array dt (Message.reader msg) ~count:msg.Message.count in
  Runtime.recycle_payload (Comm.runtime comm) msg;
  data

(* Dynamic receive: allocates an exact-size result from the message. *)
let recv comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag) () :
    'a array * Status.t =
  check_alive_self comm;
  let msg = await_recv comm ~op:"recv" ~source ~tag in
  let status = complete_matched comm dt ~op:"recv" msg in
  (unpack_fresh comm dt msg, status)

let recv comm dt ?source ?tag () =
  if tracing comm then traced comm ~op:"recv" (fun () -> recv comm dt ?source ?tag ())
  else recv comm dt ?source ?tag ()

(* [recv] without the status, for callers that would drop it: the same
   operation, span and profile entry, minus the status and the pair. *)
let recv_array comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag) () :
    'a array =
  check_alive_self comm;
  let msg = await_recv comm ~op:"recv" ~source ~tag in
  finish_matched comm dt ~op:"recv" msg;
  unpack_fresh comm dt msg

let recv_array comm dt ?source ?tag () =
  if tracing comm then traced comm ~op:"recv" (fun () -> recv_array comm dt ?source ?tag ())
  else recv_array comm dt ?source ?tag ()

(* MPI-style receive into a caller-provided buffer. *)
let recv_into comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag)
    ?(pos = 0) ?maxcount (into : 'a array) : Status.t =
  check_alive_self comm;
  let maxcount = match maxcount with Some c -> c | None -> Array.length into - pos in
  if maxcount < 0 || pos < 0 || pos + maxcount > Array.length into then
    Errdefs.usage_error "recv_into: invalid range (pos %d, maxcount %d, len %d)" pos
      maxcount (Array.length into);
  let msg = await_recv comm ~op:"recv" ~source ~tag in
  if msg.Message.count > maxcount then
    Comm.error comm Errdefs.Err_truncate
      "recv: message of %d elements truncated to buffer of %d" msg.Message.count maxcount;
  let status = complete_matched comm dt ~op:"recv" msg in
  Datatype.unpack_into dt (Message.reader msg) into ~pos ~count:msg.Message.count;
  Runtime.recycle_payload (Comm.runtime comm) msg;
  status

let recv_into comm dt ?source ?tag ?pos ?maxcount into =
  if tracing comm then
    traced comm ~op:"recv_into" (fun () -> recv_into comm dt ?source ?tag ?pos ?maxcount into)
  else recv_into comm dt ?source ?tag ?pos ?maxcount into

(* Non-blocking receive into a caller-provided buffer. *)
let irecv_into comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag)
    ?(pos = 0) ?maxcount (into : 'a array) : Request.t =
  check_alive_self comm;
  let maxcount = match maxcount with Some c -> c | None -> Array.length into - pos in
  if maxcount < 0 || pos < 0 || pos + maxcount > Array.length into then
    Errdefs.usage_error "irecv: invalid range";
  let src_world = source_world comm source in
  let mb = my_mailbox comm in
  let now = Runtime.clock (Comm.runtime comm) (Comm.world_rank comm) in
  let chk = checker comm in
  if Check.heavy chk then note_wildcard comm ~src_world ~tag;
  let p =
    Mailbox.post mb ~context:(Comm.context comm) ~src:src_world ~tag ~now
  in
  note_post comm p;
  let rt = Comm.runtime comm in
  let failed_source () =
    src_world <> any_source && Runtime.is_failed rt src_world && p.Mailbox.p_msg = None
  in
  let req =
    Request.make
      ~ready:(fun () -> p.Mailbox.p_msg <> None || failed_source ())
      ~finalize:(fun () ->
        match p.Mailbox.p_msg with
        | None ->
            Mailbox.cancel mb p;
            Comm.error comm Errdefs.Err_proc_failed "irecv: source rank has failed"
        | Some msg ->
            Mailbox.retire mb p;
            note_matched comm p msg;
            if msg.Message.count > maxcount then
              Comm.error comm Errdefs.Err_truncate "irecv: message truncated";
            let status = complete_matched comm dt ~op:"irecv" msg in
            let r = Message.reader msg in
            Datatype.unpack_into dt r into ~pos ~count:msg.Message.count;
            Runtime.recycle_payload rt msg;
            status)
      ~describe:(fun () ->
        Printf.sprintf "irecv on rank %d (src %d, tag %d)" (Comm.rank comm) source tag)
  in
  if Check.enabled chk then
    Check.track_request chk ~rank:(Comm.world_rank comm) ~kind:"irecv" req;
  req

(* ------------------------------------------------------------------ *)
(* Probing *)

let iprobe comm ?(source = any_source) ?(tag = any_tag) () : Status.t option =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  Runtime.record rt ~op:"iprobe" ~bytes:0;
  let src_world = source_world comm source in
  match
    Mailbox.find_unexpected ~remove:false (my_mailbox comm) ~context:(Comm.context comm)
      ~src:src_world ~tag
  with
  | None -> None
  | Some msg ->
      (* Probing observes the message only once it has arrived. *)
      Runtime.sync_clock rt (Comm.world_rank comm) msg.Message.arrival;
      Some (status_of_msg comm msg)

let probe comm ?(source = any_source) ?(tag = any_tag) () : Status.t =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  Runtime.record rt ~op:"probe" ~bytes:0;
  let src_world = source_world comm source in
  let find () =
    Mailbox.find_unexpected ~remove:false (my_mailbox comm) ~context:(Comm.context comm)
      ~src:src_world ~tag
  in
  let msg =
    match find () with
    | Some m -> m
    | None ->
        if Check.enabled (checker comm) then
          set_waiting_recv comm ~op:"probe" ~src_world ~tag;
        let m =
          Scheduler.park
            ~describe:(fun () ->
              Printf.sprintf "probe on rank %d (src %d, tag %d)" (Comm.rank comm) source tag)
            ~poll:find
        in
        if Check.enabled (checker comm) then clear_waiting comm;
        m
  in
  Runtime.sync_clock rt (Comm.world_rank comm) msg.Message.arrival;
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
(* Raw byte transfers (serialization fast path) and typed dynamic
   non-blocking receives *)

(* A raw byte payload is [count = length] elements of one blob byte. *)
let byte_signature = Signature.of_base Signature.Blob

(* Send a raw byte payload without datatype packing; matched by
   [recv_bytes].  The element count equals the byte length.  The single
   defensive copy (the caller keeps ownership of [payload]) goes straight
   into a pooled wire buffer, so the path allocates nothing once the pool
   is warm. *)
let send_bytes comm ~dest ?(tag = 0) (payload : Bytes.t) =
  Comm.check_rank comm dest;
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  check_alive_self comm;
  check_revoked comm ~op:"send_bytes";
  check_dest_alive comm ~op:"send_bytes" dest;
  let len = Bytes.length payload in
  let w = Runtime.acquire_writer rt me ~capacity:(max 8 len) in
  Wire.put_bytes w payload ~pos:0 ~len;
  ignore
    (Runtime.inject rt ~context:(Comm.context comm) ~src:me
       ~dst:(Comm.world_of_rank comm dest) ~tag ~payload:(Wire.writer_storage w)
       ~payload_off:0 ~payload_len:(Wire.length w) ~count:len ~signature:byte_signature
       ~sync:false);
  Runtime.record rt ~op:"send" ~bytes:len

let recv_bytes comm ?(source = any_source) ?(tag = any_tag) () : Bytes.t * Status.t =
  check_alive_self comm;
  let msg = await_recv comm ~op:"recv" ~source ~tag in
  let rt = Comm.runtime comm in
  Runtime.complete_receive rt (Comm.world_rank comm) msg;
  Runtime.charge_copy rt (Comm.world_rank comm) ~bytes:(Message.bytes msg);
  Runtime.record rt ~op:"recv" ~bytes:(Message.bytes msg);
  let status = status_of_msg comm msg in
  let data = Message.payload_copy msg in
  Runtime.recycle_payload rt msg;
  (data, status)

let recv_bytes comm ?source ?tag () =
  if tracing comm then traced comm ~op:"recv_bytes" (fun () -> recv_bytes comm ?source ?tag ())
  else recv_bytes comm ?source ?tag ()

(* A non-blocking receive whose buffer is allocated at completion time from
   the matched message — the substrate for the binding layer's
   ownership-safe non-blocking results (§III-E). *)
type 'a dyn_request = { base : Request.t; cell : 'a array option ref }

let irecv_dyn comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag) () :
    'a dyn_request =
  check_alive_self comm;
  let src_world = source_world comm source in
  let mb = my_mailbox comm in
  let now = Runtime.clock (Comm.runtime comm) (Comm.world_rank comm) in
  let chk = checker comm in
  if Check.heavy chk then note_wildcard comm ~src_world ~tag;
  let p =
    Mailbox.post mb ~context:(Comm.context comm) ~src:src_world ~tag ~now
  in
  note_post comm p;
  let rt = Comm.runtime comm in
  let cell = ref None in
  let failed_source () =
    src_world <> any_source && Runtime.is_failed rt src_world && p.Mailbox.p_msg = None
  in
  let base =
    Request.make
      ~ready:(fun () -> p.Mailbox.p_msg <> None || failed_source ())
      ~finalize:(fun () ->
        match p.Mailbox.p_msg with
        | None ->
            Mailbox.cancel mb p;
            Comm.error comm Errdefs.Err_proc_failed "irecv: source rank has failed"
        | Some msg ->
            Mailbox.retire mb p;
            note_matched comm p msg;
            let status = complete_matched comm dt ~op:"irecv" msg in
            let r = Message.reader msg in
            cell := Some (Datatype.unpack_array dt r ~count:msg.Message.count);
            Runtime.recycle_payload rt msg;
            status)
      ~describe:(fun () ->
        Printf.sprintf "irecv_dyn on rank %d (src %d, tag %d)" (Comm.rank comm) source tag)
  in
  if Check.enabled chk then
    Check.track_request chk ~rank:(Comm.world_rank comm) ~kind:"irecv_dyn" base;
  { base; cell }

let dyn_wait (r : 'a dyn_request) : 'a array * Status.t =
  let status = Request.wait r.base in
  match !(r.cell) with
  | Some data -> (data, status)
  | None -> Errdefs.usage_error "dyn_wait: request finalized without data"

let dyn_test (r : 'a dyn_request) : ('a array * Status.t) option =
  match Request.test r.base with
  | None -> None
  | Some status -> (
      match !(r.cell) with
      | Some data -> Some (data, status)
      | None -> Errdefs.usage_error "dyn_test: request finalized without data")

(* ------------------------------------------------------------------ *)
(* Persistent operations (MPI-4 MPI_Send_init / MPI_Recv_init)

   Everything a cycle does not strictly need is hoisted to init: argument
   validation, the datatype plan (byte size), the profiling counter
   handles, rank translation, and a pre-warmed pooled writer large enough
   for the payload.  What a cycle still allocates is the transport's own,
   the same as an ad-hoc message minus the status: the in-flight
   [Message.t] with its boxed times, the pooled-writer record, the
   posted-receive record and its [Some] cell, the reader, and the fiber's
   park when the receive has to wait (DESIGN.md §9.1 itemizes the words).
   The fully allocation-free hot path is the single-rank persistent
   collective, which skips transport entirely. *)

let send_init comm (dt : 'a Datatype.t) ~dest ?(tag = 0) (data : 'a array) ~pos ~count =
  Comm.check_user_tag comm tag;
  Comm.check_rank comm dest;
  if count < 0 || pos < 0 || pos + count > Array.length data then
    Errdefs.usage_error "send_init: invalid range (pos %d, count %d, len %d)" pos count
      (Array.length data);
  if not (Datatype.is_committed dt) then
    Errdefs.usage_error "send_init: datatype %s is not committed" (Datatype.name dt);
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let plan = Datatype.plan dt ~count in
  let prep = Profiling.prepare rt.Runtime.profile "send" in
  let context = Comm.context comm in
  let dst_world = Comm.world_of_rank comm dest in
  Runtime.preheat_writer rt me ~capacity:(max 8 plan.Datatype.plan_bytes);
  let start () =
    Runtime.check_alive rt me;
    check_revoked comm ~op:"send";
    check_dest_alive comm ~op:"send" dest;
    let w = Runtime.acquire_writer rt me ~capacity:(max 8 plan.Datatype.plan_bytes) in
    Datatype.pack_array dt w data ~pos ~count;
    let payload_len = Wire.length w in
    Runtime.charge_copy rt me ~bytes:payload_len;
    ignore
      (Runtime.inject rt ~context ~src:me ~dst:dst_world ~tag
         ~payload:(Wire.writer_storage w) ~payload_off:0 ~payload_len ~count
         ~signature:dt.Datatype.signature ~sync:false);
    Profiling.record_prepared rt.Runtime.profile prep ~bytes:payload_len
  in
  (* Eager send: injected at [start], so the cycle is complete immediately. *)
  Request.make_p ~describe:"send_init" ~start ~ready:(fun () -> true) ~run:(fun () -> ())

let recv_init comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag)
    ?(pos = 0) ?maxcount (into : 'a array) =
  let maxcount = match maxcount with Some c -> c | None -> Array.length into - pos in
  if maxcount < 0 || pos < 0 || pos + maxcount > Array.length into then
    Errdefs.usage_error "recv_init: invalid range (pos %d, maxcount %d, len %d)" pos
      maxcount (Array.length into);
  if not (Datatype.is_committed dt) then
    Errdefs.usage_error "recv_init: datatype %s is not committed" (Datatype.name dt);
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let src_world = source_world comm source in
  let context = Comm.context comm in
  let mb = my_mailbox comm in
  let prep = Profiling.prepare rt.Runtime.profile "recv" in
  let posted : Mailbox.posted option ref = ref None in
  let start () =
    Runtime.check_alive rt me;
    if Check.heavy rt.Runtime.check then note_wildcard comm ~src_world ~tag;
    let now = Runtime.clock rt me in
    let p = Mailbox.post mb ~context ~src:src_world ~tag ~now in
    note_post comm p;
    posted := Some p
  in
  (* The poll must wake on the same conditions as [await_posted] — match,
     source failure, observed revocation — or a cycle receiving from a
     dead rank would park forever instead of raising. *)
  let ready () =
    match !posted with None -> true | Some p -> posted_ready comm ~src_world p
  in
  let run () =
    match !posted with
    | None -> ()
    | Some p ->
        posted := None;
        let msg = await_posted comm ~op:"recv" ~src_world p in
        Mailbox.retire mb p;
        note_matched comm p msg;
        if msg.Message.count > maxcount then
          Comm.error comm Errdefs.Err_truncate
            "recv: message of %d elements truncated to buffer of %d" msg.Message.count
            maxcount;
        check_signature comm dt msg ~op:"recv";
        Runtime.complete_receive rt me msg;
        Runtime.charge_copy rt me ~bytes:(Message.bytes msg);
        Profiling.record_prepared rt.Runtime.profile prep ~bytes:(Message.bytes msg);
        let r = Message.reader msg in
        Datatype.unpack_into dt r into ~pos ~count:msg.Message.count;
        Runtime.recycle_payload rt msg
  in
  Request.make_p ~describe:"recv_init" ~start ~ready ~run
