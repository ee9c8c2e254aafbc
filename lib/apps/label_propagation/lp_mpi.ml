(* Size-constrained label propagation, plain runtime interface: ghost
   updates and size-delta synchronization are fully explicit alltoallv /
   allgatherv calls with manual counts and flattening (the 154-line layer
   of §IV-B). *)

open Mpisim

let prefix_displs ~p (counts : int array) =
  let displs = Array.make p 0 in
  for i = 1 to p - 1 do
    displs.(i) <- displs.(i - 1) + counts.(i - 1)
  done;
  displs

let exchange_ghosts comm dt (updates : (int, (int * int) list) Hashtbl.t) :
    (int * int) array =
  let p = Comm.size comm in
  let send_counts = Array.make p 0 in
  Hashtbl.iter (fun dest xs -> send_counts.(dest) <- List.length xs) updates;
  let send_displs = prefix_displs ~p send_counts in
  let total = send_displs.(p - 1) + send_counts.(p - 1) in
  let send_buf = Array.make (max 1 total) (0, 0) in
  let cursor = Array.copy send_displs in
  Hashtbl.iter
    (fun dest xs ->
      List.iter
        (fun x ->
          send_buf.(cursor.(dest)) <- x;
          cursor.(dest) <- cursor.(dest) + 1)
        xs)
    updates;
  let send_buf = Array.sub send_buf 0 total in
  let recv_counts = Coll.alltoall comm Datatype.int send_counts in
  let recv_displs = prefix_displs ~p recv_counts in
  Coll.alltoallv comm dt ~send_counts ~send_displs ~recv_counts ~recv_displs send_buf

let sync_sizes comm dt (deltas : (int * int) list) : (int * int) array =
  let mine = Array.of_list deltas in
  let counts = Coll.allgather comm Datatype.int [| Array.length mine |] in
  Coll.allgatherv comm dt ~recv_counts:counts mine

let run comm (g : Graphgen.Distgraph.t) ~max_cluster_size ~rounds : int array =
  Lp_common.with_pair_dt @@ fun dt ->
  let st = Lp_common.create g ~max_cluster_size in
  for _ = 1 to rounds do
    let moves = Lp_common.local_pass st in
    let ghosts = exchange_ghosts comm dt (Lp_common.boundary_updates st moves) in
    Lp_common.apply_ghost_updates st ghosts;
    let all_deltas = sync_sizes comm dt (Lp_common.size_deltas moves) in
    Lp_common.apply_size_deltas st (Array.to_list all_deltas)
  done;
  st.Lp_common.labels
