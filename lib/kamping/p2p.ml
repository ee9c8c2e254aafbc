(* High-level point-to-point operations.

   Improvements over the raw interface (paper §III):
   - receives are dynamic by default: no count parameter, the result is
     returned by value with exactly the received size;
   - receives into existing storage take a resize policy;
   - tags default to 0. *)

open Mpisim

let c = Communicator.mpi

(* Blocking operations get a cat:"kamping" span when tracing is on.
   Plain [send] stays unwrapped — it is the hottest path and the runtime
   already leaves it span-free for the same reason; its injection instant
   (cat "sim"/"send") is the record of it.  Everything that can block
   (synchronous sends and all receives) gets a span, so waits show up as
   bars in the trace rather than gaps.  Each operation tests [tracing]
   and calls straight through when it is off, so the untraced path builds
   no closure. *)
let tracing mpi = Trace.enabled (Comm.runtime mpi).Runtime.trace

let traced mpi ~name f =
  Runtime.with_span (Comm.runtime mpi) (Comm.world_rank mpi) ~cat:"kamping" ~name f

let send comm dt ~dest ?tag (data : 'a array) = P2p.send (c comm) dt ~dest ?tag data

let send_single comm dt ~dest ?tag (x : 'a) = P2p.send (c comm) dt ~dest ?tag [| x |]

let ssend comm dt ~dest ?tag (data : 'a array) =
  let mpi = c comm in
  if tracing mpi then traced mpi ~name:"ssend" (fun () -> P2p.ssend mpi dt ~dest ?tag data)
  else P2p.ssend mpi dt ~dest ?tag data

let recv comm dt ?source ?tag () : 'a array =
  let mpi = c comm in
  if tracing mpi then traced mpi ~name:"recv" (fun () -> P2p.recv_array mpi dt ?source ?tag ())
  else P2p.recv_array mpi dt ?source ?tag ()

let recv_with_status comm dt ?source ?tag () : 'a array * Status.t =
  let mpi = c comm in
  if tracing mpi then traced mpi ~name:"recv" (fun () -> P2p.recv mpi dt ?source ?tag ())
  else P2p.recv mpi dt ?source ?tag ()

let recv_single comm dt ?source ?tag () : 'a =
  let data = recv comm dt ?source ?tag () in
  if Array.length data <> 1 then
    Errdefs.usage_error "recv_single: expected 1 element, got %d" (Array.length data);
  data.(0)

let recv_into comm dt ?(policy = Resize_policy.default) ?source ?tag (buf : 'a Vec.t) :
    Status.t =
  let data, status = recv_with_status comm dt ?source ?tag () in
  Vec.write_array policy buf data;
  status

let probe comm ?source ?tag () : Status.t =
  let mpi = c comm in
  if tracing mpi then traced mpi ~name:"probe" (fun () -> P2p.probe mpi ?source ?tag ())
  else P2p.probe mpi ?source ?tag ()

let iprobe comm ?source ?tag () : Status.t option = P2p.iprobe (c comm) ?source ?tag ()

(* [P2p.sendrecv] is a send then a receive; composing them here skips the
   status the result would drop. *)
let sendrecv_array mpi dt ~dest ?send_tag ~source ?recv_tag (data : 'a array) : 'a array =
  P2p.send mpi dt ~dest ?tag:send_tag data;
  P2p.recv_array mpi dt ~source ?tag:recv_tag ()

let sendrecv comm dt ~dest ?send_tag ~source ?recv_tag (data : 'a array) : 'a array =
  let mpi = c comm in
  if tracing mpi then
    traced mpi ~name:"sendrecv" (fun () ->
        sendrecv_array mpi dt ~dest ?send_tag ~source ?recv_tag data)
  else sendrecv_array mpi dt ~dest ?send_tag ~source ?recv_tag data
