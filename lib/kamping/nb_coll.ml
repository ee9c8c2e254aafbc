(* Non-blocking collectives through the ownership-safe result interface:
   the collective's output is only reachable via wait/test, like the
   point-to-point results of §III-E.

   Progress is the runtime's: the call posts the collective's schedule,
   each test takes the steps whose messages have arrived, and wait
   completes it — post, do independent work (testing now and then),
   complete. *)

open Mpisim

let c = Communicator.mpi

let ibcast comm dt ~root ?data () : 'a array Nb.t =
  Nb.of_cell (Coll.ibcast (c comm) dt ~root data)

let iallreduce comm dt op (data : 'a array) : 'a array Nb.t =
  Nb.of_cell (Coll.iallreduce (c comm) dt op data)

let ireduce_scatter comm dt op ?recv_counts (data : 'a array) : 'a array Nb.t =
  let mpi = c comm in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None -> Collectives.even_split ~len:(Array.length data) ~size:(Comm.size mpi)
  in
  Nb.of_cell (Coll.ireduce_scatter mpi dt op ~recv_counts data)

(* Counts are inferred eagerly (one blocking alltoall now); the data
   exchange progresses in test/wait. *)
let ialltoallv comm dt ~send_counts ?recv_counts (data : 'a array) : 'a array Nb.t =
  let mpi = c comm in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None -> Coll.alltoall mpi Datatype.int send_counts
  in
  let send_displs = Coll.exclusive_prefix_sum send_counts in
  let recv_displs = Coll.exclusive_prefix_sum recv_counts in
  Nb.of_cell
    (Coll.ialltoallv mpi dt ~send_counts ~send_displs ~recv_counts ~recv_displs data)

let ibarrier comm : unit Nb.t =
  let req = Coll.ibarrier (c comm) in
  Nb.of_request req ~fetch:(fun () -> ())
