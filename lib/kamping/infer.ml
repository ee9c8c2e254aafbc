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

(* MPI placement of a packed allgatherv result: block [s] of [buf] (its
   [counts.(s)] elements, in rank order) lands at [displs.(s)].  The
   buffer ends where the last-ending block ends; elements no block
   covers are the datatype's zero.  Displacements that are the packed
   layout return [buf] itself. *)
let place dt ~(counts : int array) ~(displs : int array) (buf : 'a array) =
  let p = Array.length counts in
  if Array.length displs <> p then
    Errdefs.usage_error "allgatherv: recv_displs has length %d, expected %d"
      (Array.length displs) p;
  let len = ref 0 and packed = ref true in
  for s = 0 to p - 1 do
    if displs.(s) < 0 then
      Errdefs.usage_error "allgatherv: recv_displs.(%d) = %d is negative" s displs.(s);
    if displs.(s) <> !len then packed := false;
    len := max !len (displs.(s) + counts.(s))
  done;
  if !packed then buf
  else begin
    let out = if !len = 0 then [||] else Array.make !len (Datatype.zero_elem dt) in
    let pos = ref 0 in
    for s = 0 to p - 1 do
      Array.blit buf !pos out displs.(s) counts.(s);
      pos := !pos + counts.(s)
    done;
    out
  end

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
  let packed = Coll.allgatherv mpi dt ~recv_counts send_view in
  match recv_displs with
  | Some recv_displs ->
      let recv_buf = place dt ~counts:recv_counts ~displs:recv_displs packed in
      { recv_buf; recv_counts; recv_displs }
  | None ->
      let recv_displs = Coll.exclusive_prefix_sum recv_counts in
      { recv_buf = packed; recv_counts; recv_displs }

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
  (* Counts and displacements mean something at the root only; a
     non-root's are empty, whether they were given or inferred. *)
  if Communicator.rank comm = root then
    {
      recv_buf = Coll.gatherv mpi dt ~root ~recv_counts send_view;
      recv_counts;
      recv_displs = Coll.exclusive_prefix_sum recv_counts;
    }
  else
    { recv_buf = Coll.gatherv mpi dt ~root send_view; recv_counts = [||]; recv_displs = [||] }

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
