(* Size-constrained label propagation, KaMPIng style: each exchange is a
   single call with inferred counts (the 127-line layer of §IV-B). *)


let run mpi (g : Graphgen.Distgraph.t) ~max_cluster_size ~rounds : int array =
  let comm = Kamping.Communicator.of_mpi mpi in
  Lp_common.with_pair_dt @@ fun dt ->
  let st = Lp_common.create g ~max_cluster_size in
  for _ = 1 to rounds do
    let moves = Lp_common.local_pass st in
    let ghosts = Kamping.Flatten.alltoallv comm dt (Lp_common.boundary_updates st moves) in
    Lp_common.apply_ghost_updates st ghosts;
    let all_deltas =
      Kamping.Collectives.allgatherv comm dt
        (Array.of_list (Lp_common.size_deltas moves))
    in
    Lp_common.apply_size_deltas st (Array.to_list all_deltas)
  done;
  st.Lp_common.labels
