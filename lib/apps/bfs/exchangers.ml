(* The Fig. 10 experiment: one BFS driver, five frontier-exchange
   strategies.

   - [Dense_mpi]: built-in alltoallv (counts exchanged with a dense
     alltoall every level); time linear in p regardless of sparsity.
   - [Neighbor]: MPI-3 neighborhood collectives on a graph topology built
     ONCE per BFS from the static cut structure.
   - [Neighbor_rebuild]: the same, but the topology communicator is
     rebuilt before every exchange — simulating dynamic communication
     patterns; the paper notes this "does not scale".
   - [Kamping]: the binding layer's alltoallv with inferred parameters
     (should match [Dense_mpi] — the zero-overhead claim).
   - [Sparse]: the NBX sparse all-to-all plugin.
   - [Grid]: the 2-D grid indirect all-to-all plugin. *)

open Mpisim
open Graphgen

type exchanger = Dense_mpi | Neighbor | Neighbor_rebuild | Kamping | Sparse | Grid

let exchanger_name = function
  | Dense_mpi -> "mpi"
  | Neighbor -> "mpi_neighbor"
  | Neighbor_rebuild -> "mpi_neighbor_rebuild"
  | Kamping -> "kamping"
  | Sparse -> "kamping_sparse"
  | Grid -> "kamping_grid"

let all = [ Dense_mpi; Neighbor; Neighbor_rebuild; Kamping; Sparse; Grid ]

(* Flatten buckets into (data grouped by destination, counts over all p
   ranks). *)
let flatten_dense ~p buckets = Kamping.Flatten.flatten ~size:p buckets

(* Exchange over a prebuilt neighbor topology: counts first (one int per
   neighbor), then the payload. *)
let neighbor_exchange topo_comm (neighbors : int array)
    (buckets : (int, int list) Hashtbl.t) : int array =
  let deg = Array.length neighbors in
  let counts =
    Array.map
      (fun nb -> match Hashtbl.find_opt buckets nb with Some vs -> List.length vs | None -> 0)
      neighbors
  in
  let ones = Array.make deg 1 in
  let recv_counts =
    Coll.neighbor_alltoallv topo_comm Datatype.int ~send_counts:ones ~recv_counts:ones
      counts
  in
  let data =
    Array.concat
      (Array.to_list
         (Array.map
            (fun nb ->
              match Hashtbl.find_opt buckets nb with
              | Some vs -> Common.array_of_rev_list vs
              | None -> [||])
            neighbors))
  in
  Coll.neighbor_alltoallv topo_comm Datatype.int ~send_counts:counts ~recv_counts data

let bfs mpi (g : Distgraph.t) ~(source : int) ~(exchanger : exchanger) : int array =
  let comm = Kamping.Communicator.of_mpi mpi in
  let p = Kamping.Communicator.size comm in
  (* One-time exchanger setup (its cost is part of the measurement). *)
  let neighbors = lazy (Common.cut_neighbors g) in
  let static_topo =
    match exchanger with
    | Neighbor ->
        let nbs = Lazy.force neighbors in
        Some (Comm_ops.dist_graph_create_adjacent mpi ~sources:nbs ~destinations:nbs)
    | Dense_mpi | Neighbor_rebuild | Kamping | Sparse | Grid -> None
  in
  let grid =
    match exchanger with
    | Grid -> Some (Kamping_plugins.Grid_kd.create ~k:2 comm)
    | Dense_mpi | Neighbor | Neighbor_rebuild | Kamping | Sparse -> None
  in
  let exchange (buckets : (int, int list) Hashtbl.t) : int array =
    match exchanger with
    | Dense_mpi ->
        let data, send_counts = flatten_dense ~p buckets in
        let recv_counts = Coll.alltoall mpi Datatype.int send_counts in
        let send_displs = Coll.exclusive_prefix_sum send_counts in
        let recv_displs = Coll.exclusive_prefix_sum recv_counts in
        Coll.alltoallv mpi Datatype.int ~send_counts ~send_displs ~recv_counts ~recv_displs
          data
    | Kamping -> Kamping.Flatten.alltoallv comm Datatype.int buckets
    | Neighbor ->
        neighbor_exchange (Option.get static_topo) (Lazy.force neighbors) buckets
    | Neighbor_rebuild ->
        let nbs = Lazy.force neighbors in
        let topo = Comm_ops.dist_graph_create_adjacent mpi ~sources:nbs ~destinations:nbs in
        neighbor_exchange topo nbs buckets
    | Sparse ->
        let outgoing =
          Hashtbl.fold
            (fun dest vs acc -> (dest, Common.array_of_rev_list vs) :: acc)
            buckets []
        in
        let incoming = Kamping_plugins.Sparse_alltoall.alltoallv comm Datatype.int outgoing in
        Array.concat (List.map snd incoming)
    | Grid ->
        let data, send_counts = flatten_dense ~p buckets in
        Kamping_plugins.Grid_kd.alltoallv (Option.get grid) Datatype.int ~send_counts
          data
  in
  let dist, frontier0 = Common.initial_state g ~source in
  let frontier = ref frontier0 in
  let level = ref 0 in
  let globally_empty f =
    Kamping.Collectives.allreduce_single comm Datatype.bool Reduce_op.bool_and (f = [])
  in
  while not (globally_empty !frontier) do
    let next_local, buckets = Common.expand_frontier g dist !frontier ~level:!level in
    let received = exchange buckets in
    Common.relax_received g dist received ~level:!level next_local;
    frontier := !next_local;
    incr level
  done;
  dist
