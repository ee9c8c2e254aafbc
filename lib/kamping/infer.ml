(* Count inference for the vector collectives (paper §III-A), written
   once for both front-ends: the labelled by-value calls of
   {!Collectives} keep [recv_buf]; {!Named} also hands the computed
   counts and displacements to its result object (§III-B).  Private to
   the library (dune's [private_modules]).

   - send counts default to the send buffer's length;
   - receive counts default to an allgather / gather / alltoall of the
     send counts;
   - displacements default to exclusive prefix sums. *)

open Mpisim

let c = Communicator.mpi

(* Trace span around one binding-layer call, so default-parameter
   communication (the count allgather of [allgatherv]) shows up inside
   the kamping span, nested above the underlying [Coll] spans. *)
let traced comm ~op f =
  let mpi = c comm in
  Runtime.with_span (Comm.runtime mpi) (Comm.world_rank mpi) ~cat:"kamping" ~name:op f

type 'a vector_result = {
  recv_buf : 'a array;
  recv_counts : int array;
  recv_displs : int array;
}

let allgatherv comm dt ?send_count ?recv_counts ?recv_displs (send_buf : 'a array) :
    'a vector_result =
  traced comm ~op:"allgatherv" @@ fun () ->
  let mpi = c comm in
  let send_count = match send_count with Some s -> s | None -> Array.length send_buf in
  let send_view =
    if send_count = Array.length send_buf then send_buf else Array.sub send_buf 0 send_count
  in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None -> Coll.allgather mpi Datatype.int [| send_count |]
  in
  let recv_displs =
    match recv_displs with Some d -> d | None -> Coll.exclusive_prefix_sum recv_counts
  in
  let recv_buf = Coll.allgatherv mpi dt ~recv_counts send_view in
  { recv_buf; recv_counts; recv_displs }

let gatherv comm dt ~root ?send_count ?recv_counts (send_buf : 'a array) : 'a vector_result
    =
  traced comm ~op:"gatherv" @@ fun () ->
  let mpi = c comm in
  let send_count = match send_count with Some s -> s | None -> Array.length send_buf in
  let send_view =
    if send_count = Array.length send_buf then send_buf else Array.sub send_buf 0 send_count
  in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None ->
        (* One extra gather of the counts; only the root keeps it. *)
        Coll.gather mpi Datatype.int ~root [| send_count |]
  in
  let is_root = Communicator.rank comm = root in
  let recv_buf =
    if is_root then Coll.gatherv mpi dt ~root ~recv_counts send_view
    else Coll.gatherv mpi dt ~root send_view
  in
  let recv_displs = if is_root then Coll.exclusive_prefix_sum recv_counts else [||] in
  { recv_buf; recv_counts; recv_displs }

let alltoallv comm dt ~(send_counts : int array) ?send_displs ?recv_counts ?recv_displs
    (send_buf : 'a array) : 'a vector_result =
  traced comm ~op:"alltoallv" @@ fun () ->
  let mpi = c comm in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None -> Coll.alltoall mpi Datatype.int send_counts
  in
  let recv_displs =
    match recv_displs with Some d -> d | None -> Coll.exclusive_prefix_sum recv_counts
  in
  let send_displs =
    match send_displs with Some d -> d | None -> Coll.exclusive_prefix_sum send_counts
  in
  let recv_buf =
    Coll.alltoallv mpi dt ~send_counts ~send_displs ~recv_counts ~recv_displs send_buf
  in
  { recv_buf; recv_counts; recv_displs }
