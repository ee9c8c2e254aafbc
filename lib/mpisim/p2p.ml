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
   receives, synchronous sends and probes are where virtual time is spent. *)
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
  if rt.Runtime.assertion_level >= 1 && not (Datatype.is_committed dt) then
    Errdefs.usage_error "%s: datatype %s is not committed" op (Datatype.name dt);
  let w = Runtime.acquire_writer rt me ~capacity:(max 8 (Datatype.size_of_count dt count)) in
  Datatype.pack_array dt w data ~pos ~count;
  let payload, payload_len = Wire.unsafe_contents w in
  Runtime.charge_copy rt me ~bytes:payload_len;
  let msg =
    Runtime.inject rt ~context:(Comm.context comm) ~src:me
      ~dst:(Comm.world_of_rank comm dest) ~tag ~payload ~payload_off:0 ~payload_len ~count
      ~signature:(Datatype.signature_of_count dt count)
      ~sync
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
  traced comm ~op:"ssend" (fun () -> ssend comm dt ~dest ?tag data)

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

(* Multicore: a rank's mailbox is also mutated by concurrent senders
   ([Runtime.inject] delivers under the runtime lock), so the
   receiver-side queue operations take the same lock.  Plain calls in
   sequential mode ({!Runtime.locked} is then a direct application).
   Reads of an already-posted receive's [p_msg] field stay lock-free:
   it is a single mutable word, and the scheduler's round barrier
   orders the matching write before the resumed receiver's read. *)
let mb_post rt mb ~context ~src ~tag ~now =
  Runtime.locked rt (fun () -> Mailbox.post mb ~context ~src ~tag ~now)

let mb_retire rt mb p = Runtime.locked rt (fun () -> Mailbox.retire mb p)

let mb_cancel rt mb p = Runtime.locked rt (fun () -> Mailbox.cancel mb p)

let mb_find_unexpected rt mb ~context ~src ~tag =
  Runtime.locked rt (fun () -> Mailbox.find_unexpected ~remove:false mb ~context ~src ~tag)

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

let check_signature comm (dt : 'a Datatype.t) (msg : Message.t) ~op =
  let rt = Comm.runtime comm in
  if rt.Runtime.assertion_level >= 1 then begin
    let expected = Datatype.signature_of_count dt msg.Message.count in
    if not (Signature.matches expected msg.Message.signature) then
      Comm.error comm Errdefs.Err_type
        "%s: type signature mismatch: receiving as %s but message from rank %d has %s" op
        (Signature.to_string expected) msg.Message.src
        (Signature.to_string msg.Message.signature)
  end

(* Wait until the posted receive [p] matches, also waking on source failure.
   Returns the matched message or raises. *)
let await_posted comm ~op ~src_world (p : Mailbox.posted) =
  let rt = Comm.runtime comm in
  let failed_source () =
    src_world <> any_source && Runtime.is_failed rt src_world && p.Mailbox.p_msg = None
  in
  (* A revoked communicator only aborts this receive once the source has
     itself observed the revocation (or died, or is a wildcard): until
     then the source may still complete the in-flight exchange, and
     waking early would tear down collectives that could drain. *)
  let revocation_abort () =
    p.Mailbox.p_msg = None
    && Comm.revoked_flag comm
    && (src_world = any_source || Comm.revocation_reached comm ~world:src_world)
  in
  let ready () = p.Mailbox.p_msg <> None || failed_source () || revocation_abort () in
  if not (ready ()) then begin
    if Check.enabled (checker comm) then
      set_waiting_recv comm ~op ~src_world ~tag:p.Mailbox.p_tag;
    Scheduler.park
      ~describe:(fun () ->
        Printf.sprintf "%s on rank %d (ctx %d, src %d, tag %d)" op (Comm.rank comm)
          (Comm.context comm) p.Mailbox.p_src p.Mailbox.p_tag)
      ~poll:(fun () -> if ready () then Some () else None);
    if Check.enabled (checker comm) then clear_waiting comm
  end;
  match p.Mailbox.p_msg with
  | Some msg -> msg
  | None ->
      mb_cancel rt (my_mailbox comm) p;
      if revocation_abort () then
        Comm.error comm Errdefs.Err_revoked "%s: communicator revoked" op
      else
        Comm.error comm Errdefs.Err_proc_failed "%s: source rank has failed" op

(* Finish a matched receive: signature check, clock accounting, status. *)
let complete_matched comm dt ~op (msg : Message.t) =
  let rt = Comm.runtime comm in
  check_signature comm dt msg ~op;
  Runtime.complete_receive rt (Comm.world_rank comm) msg;
  Runtime.charge_copy rt (Comm.world_rank comm) ~bytes:(Message.bytes msg);
  Runtime.record rt ~op ~bytes:(Message.bytes msg);
  Status.make
    ~source:(Comm.rank_of_world comm msg.Message.src)
    ~tag:msg.Message.tag ~count:msg.Message.count ~bytes:(Message.bytes msg)

(* Dynamic receive: allocates an exact-size result from the message. *)
let recv comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag) () :
    'a array * Status.t =
  check_alive_self comm;
  let src_world = source_world comm source in
  let now = Runtime.clock (Comm.runtime comm) (Comm.world_rank comm) in
  if Check.heavy (checker comm) then note_wildcard comm ~src_world ~tag;
  let p =
    mb_post (Comm.runtime comm) (my_mailbox comm) ~context:(Comm.context comm)
      ~src:src_world ~tag ~now
  in
  note_post comm p;
  let msg = await_posted comm ~op:"recv" ~src_world p in
  mb_retire (Comm.runtime comm) (my_mailbox comm) p;
  note_matched comm p msg;
  let status = complete_matched comm dt ~op:"recv" msg in
  let r = Message.reader msg in
  let data = Datatype.unpack_array dt r ~count:msg.Message.count in
  Runtime.recycle_payload (Comm.runtime comm) msg;
  (data, status)

let recv comm dt ?source ?tag () = traced comm ~op:"recv" (fun () -> recv comm dt ?source ?tag ())

(* MPI-style receive into a caller-provided buffer. *)
let recv_into comm (dt : 'a Datatype.t) ?(source = any_source) ?(tag = any_tag)
    ?(pos = 0) ?maxcount (into : 'a array) : Status.t =
  check_alive_self comm;
  let maxcount = match maxcount with Some c -> c | None -> Array.length into - pos in
  if maxcount < 0 || pos < 0 || pos + maxcount > Array.length into then
    Errdefs.usage_error "recv_into: invalid range (pos %d, maxcount %d, len %d)" pos
      maxcount (Array.length into);
  let src_world = source_world comm source in
  let now = Runtime.clock (Comm.runtime comm) (Comm.world_rank comm) in
  if Check.heavy (checker comm) then note_wildcard comm ~src_world ~tag;
  let p =
    mb_post (Comm.runtime comm) (my_mailbox comm) ~context:(Comm.context comm)
      ~src:src_world ~tag ~now
  in
  note_post comm p;
  let msg = await_posted comm ~op:"recv" ~src_world p in
  mb_retire (Comm.runtime comm) (my_mailbox comm) p;
  note_matched comm p msg;
  if msg.Message.count > maxcount then
    Comm.error comm Errdefs.Err_truncate
      "recv: message of %d elements truncated to buffer of %d" msg.Message.count maxcount;
  let status = complete_matched comm dt ~op:"recv" msg in
  let r = Message.reader msg in
  Datatype.unpack_into dt r into ~pos ~count:msg.Message.count;
  Runtime.recycle_payload (Comm.runtime comm) msg;
  status

let recv_into comm dt ?source ?tag ?pos ?maxcount into =
  traced comm ~op:"recv_into" (fun () -> recv_into comm dt ?source ?tag ?pos ?maxcount into)

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
    mb_post (Comm.runtime comm) mb ~context:(Comm.context comm) ~src:src_world ~tag ~now
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
            mb_cancel rt mb p;
            Comm.error comm Errdefs.Err_proc_failed "irecv: source rank has failed"
        | Some msg ->
            mb_retire rt mb p;
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

let status_of_unmatched comm (msg : Message.t) =
  Status.make
    ~source:(Comm.rank_of_world comm msg.Message.src)
    ~tag:msg.Message.tag ~count:msg.Message.count ~bytes:(Message.bytes msg)

let iprobe comm ?(source = any_source) ?(tag = any_tag) () : Status.t option =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  Runtime.record rt ~op:"iprobe" ~bytes:0;
  let src_world = source_world comm source in
  match
    mb_find_unexpected (Comm.runtime comm) (my_mailbox comm) ~context:(Comm.context comm)
      ~src:src_world ~tag
  with
  | None -> None
  | Some msg ->
      (* Probing observes the message only once it has arrived. *)
      Runtime.sync_clock rt (Comm.world_rank comm) msg.Message.arrival;
      Some (status_of_unmatched comm msg)

let probe comm ?(source = any_source) ?(tag = any_tag) () : Status.t =
  check_alive_self comm;
  let rt = Comm.runtime comm in
  Runtime.record rt ~op:"probe" ~bytes:0;
  let src_world = source_world comm source in
  let find () =
    mb_find_unexpected (Comm.runtime comm) (my_mailbox comm) ~context:(Comm.context comm)
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
  status_of_unmatched comm msg

let probe comm ?source ?tag () = traced comm ~op:"probe" (fun () -> probe comm ?source ?tag ())

(* Combined send+receive, deadlock-free because sends are eager. *)
let sendrecv comm dt ~dest ?(send_tag = 0) ~source ?(recv_tag = any_tag) (data : 'a array)
    : 'a array * Status.t =
  send comm dt ~dest ~tag:send_tag data;
  recv comm dt ~source ~tag:recv_tag ()

(* ------------------------------------------------------------------ *)
(* Raw byte transfers (serialization fast path) and typed dynamic
   non-blocking receives *)

let blob_signature bytes_len = Signature.of_base ~count:bytes_len Signature.Blob

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
  let storage, payload_len = Wire.unsafe_contents w in
  ignore
    (Runtime.inject rt ~context:(Comm.context comm) ~src:me
       ~dst:(Comm.world_of_rank comm dest) ~tag ~payload:storage ~payload_off:0
       ~payload_len ~count:len ~signature:(blob_signature len) ~sync:false);
  Runtime.record rt ~op:"send" ~bytes:len

let recv_bytes comm ?(source = any_source) ?(tag = any_tag) () : Bytes.t * Status.t =
  check_alive_self comm;
  let src_world = source_world comm source in
  let now = Runtime.clock (Comm.runtime comm) (Comm.world_rank comm) in
  if Check.heavy (checker comm) then note_wildcard comm ~src_world ~tag;
  let p =
    mb_post (Comm.runtime comm) (my_mailbox comm) ~context:(Comm.context comm)
      ~src:src_world ~tag ~now
  in
  note_post comm p;
  let msg = await_posted comm ~op:"recv" ~src_world p in
  mb_retire (Comm.runtime comm) (my_mailbox comm) p;
  note_matched comm p msg;
  let rt = Comm.runtime comm in
  Runtime.complete_receive rt (Comm.world_rank comm) msg;
  Runtime.charge_copy rt (Comm.world_rank comm) ~bytes:(Message.bytes msg);
  Runtime.record rt ~op:"recv" ~bytes:(Message.bytes msg);
  let status =
    Status.make
      ~source:(Comm.rank_of_world comm msg.Message.src)
      ~tag:msg.Message.tag ~count:msg.Message.count ~bytes:(Message.bytes msg)
  in
  let data = Message.payload_copy msg in
  Runtime.recycle_payload rt msg;
  (data, status)

let recv_bytes comm ?source ?tag () =
  traced comm ~op:"recv_bytes" (fun () -> recv_bytes comm ?source ?tag ())

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
    mb_post (Comm.runtime comm) mb ~context:(Comm.context comm) ~src:src_world ~tag ~now
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
            mb_cancel rt mb p;
            Comm.error comm Errdefs.Err_proc_failed "irecv: source rank has failed"
        | Some msg ->
            mb_retire rt mb p;
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
   validation, the datatype plan (byte size + wire signature), the
   profiling counter handles, rank translation, and a pre-warmed pooled
   writer large enough for the payload.  The remaining per-cycle
   allocations are the transport's own (the in-flight [Message.t], the
   3-word pooled-writer record, the posted-receive record) — the fully
   allocation-free hot path is the single-rank persistent collective,
   which skips transport entirely. *)

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
    let payload, payload_len = Wire.unsafe_contents w in
    Runtime.charge_copy rt me ~bytes:payload_len;
    ignore
      (Runtime.inject rt ~context ~src:me ~dst:dst_world ~tag ~payload ~payload_off:0
         ~payload_len ~count
         ~signature:plan.Datatype.plan_signature ~sync:false);
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
    let p = mb_post rt mb ~context ~src:src_world ~tag ~now in
    note_post comm p;
    posted := Some p
  in
  (* The poll must wake on the same conditions as [await_posted] — match,
     source failure, observed revocation — or a cycle receiving from a
     dead rank would park forever instead of raising. *)
  let ready () =
    match !posted with
    | None -> true
    | Some p ->
        p.Mailbox.p_msg <> None
        || (src_world <> any_source && Runtime.is_failed rt src_world)
        || Comm.revoked_flag comm
           && (src_world = any_source || Comm.revocation_reached comm ~world:src_world)
  in
  let run () =
    match !posted with
    | None -> ()
    | Some p ->
        posted := None;
        let msg = await_posted comm ~op:"recv" ~src_world p in
        mb_retire rt mb p;
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
