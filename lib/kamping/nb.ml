(* Ownership-safe non-blocking communication (paper §III-E).

   A ['a Nb.t] is a "non-blocking MPI result": it encapsulates the request
   *and* the data involved in the operation.  The only way to get the data
   is [wait] (blocks, returns it) or [test] (returns [Some data] once the
   operation has completed, [None] before).  For sends, the buffer is
   conceptually moved into the call and handed back on completion, so
   well-typed user code cannot read or reuse a buffer that is still in
   flight — the analogue of the C++ ownership model, and the analogue of
   what rsmpi gets from Rust's borrow checker. *)

open Mpisim

let c = Communicator.mpi

(* Mark the post of a non-blocking operation on the trace ([a] = peer rank,
   [-1] for wildcard receives); completion shows up through the runtime's
   match/park events.  The post carries the rank's current Lamport clock
   ([d]), so causal analyses can order posts against the send/match
   events around them. *)
let post_instant comm ~name ~peer =
  let mpi = c comm in
  let rt = Comm.runtime mpi in
  if Trace.enabled rt.Runtime.trace then begin
    let rank = Comm.world_rank mpi in
    Trace.instant_d rt.Runtime.trace ~rank ~cat:"kamping" ~name ~a:peer ~b:(-1) ~c:(-1)
      ~d:(Runtime.lamport_clock rt rank)
  end

type 'a t = { request : Request.t; fetch : unit -> 'a; mutable fetched : 'a option }

let of_request ~fetch request = { request; fetch; fetched = None }

let wait (t : 'a t) : 'a =
  match t.fetched with
  | Some v -> v
  | None ->
      (* An already-complete request (pool drain, [forget]-shared handles)
         only needs its payload fetched; re-entering [Request.wait] would
         count as a double-wait for the sanitizer, which is reserved for
         user code waiting a raw request twice. *)
      if not (Request.is_complete t.request) then
        ignore (Request.wait t.request : Status.t);
      let v = t.fetch () in
      t.fetched <- Some v;
      v

let test (t : 'a t) : 'a option =
  match t.fetched with
  | Some v -> Some v
  | None ->
      (* Same guard as [wait]: a request completed elsewhere ([forget]-shared
         handles, pool drains) only needs its payload fetched, and testing it
         again through [Request.test] would read as a completion call on an
         inactive request to the sanitizer. *)
      if Request.is_complete t.request || Request.test t.request <> None then begin
        let v = t.fetch () in
        t.fetched <- Some v;
        Some v
      end
      else None

let is_complete (t : 'a t) = t.fetched <> None || Request.is_complete t.request

(* Discard the payload; useful for pooling heterogeneous results. *)
let forget (t : 'a t) : unit t =
  { request = t.request; fetch = (fun () -> ignore (t.fetch ())); fetched = None }

(* Heavy-level send-buffer integrity: hash the buffer when the send is
   posted and hand back a fetch that re-hashes at completion — a mismatch
   means the program mutated a buffer whose ownership it had transferred.
   At lighter levels the fetch is the plain identity closure. *)
let guarded_send_fetch comm ~op (data : 'a array) =
  let mpi = c comm in
  let chk = (Comm.runtime mpi).Runtime.check in
  if not (Check.heavy chk) then fun () -> data
  else begin
    let posted = Check.buffer_hash data in
    fun () ->
      Check.check_send_buffer chk ~rank:(Comm.world_rank mpi) ~op ~posted
        ~now:(Check.buffer_hash data);
      data
  end

(* Send with buffer ownership transfer: [data] is moved into the call and
   returned by [wait]/[test] once the operation has completed (Fig. 6). *)
let isend comm dt ~dest ?tag (data : 'a array) : 'a array t =
  post_instant comm ~name:"isend" ~peer:dest;
  let fetch = guarded_send_fetch comm ~op:"isend" data in
  let request = P2p.isend (c comm) dt ~dest ?tag data in
  of_request request ~fetch

(* Synchronous-mode send: completes only when the receiver has matched. *)
let issend comm dt ~dest ?tag (data : 'a array) : 'a array t =
  post_instant comm ~name:"issend" ~peer:dest;
  let fetch = guarded_send_fetch comm ~op:"issend" data in
  let request = P2p.issend (c comm) dt ~dest ?tag data in
  of_request request ~fetch

(* A result the operation puts in a cell at completion: a dynamic receive
   or a nonblocking collective. *)
let of_cell ((request, cell) : Request.t * 'a option ref) : 'a t =
  of_request request ~fetch:(fun () ->
      match !cell with
      | Some v -> v
      | None -> Errdefs.usage_error "non-blocking operation completed without a result")

(* Dynamic non-blocking receive: the result buffer is created on completion
   with exactly the received size, so there is no window in which the user
   could observe a partially received buffer. *)
let irecv comm dt ?source ?tag () : 'a array t =
  post_instant comm ~name:"irecv" ~peer:(Option.value source ~default:(-1));
  of_cell (P2p.irecv (c comm) dt ?source ?tag ())
