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
   - [Grid]: the 2-D grid indirect all-to-all plugin.

   Each level is [Common.expand], one exchange and [Common.advance]; the
   exchangers read the level's per-owner blocks from [Common]'s flat
   state (DESIGN.md §13.1). *)

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

(* Exchange over a prebuilt neighbor topology: counts first (one int per
   neighbor), then the payload, each neighbor's block in insertion order. *)
let neighbor_exchange topo_comm (neighbors : int array) (st : Common.t) : int array =
  let counts = Array.map (Common.count st) neighbors in
  let ones = Array.make (Array.length neighbors) 1 in
  let recv_counts =
    Coll.neighbor_alltoallv topo_comm Datatype.int ~send_counts:ones ~recv_counts:ones
      counts
  in
  let data = Common.concat_blocks st neighbors ~newest_first:false in
  Coll.neighbor_alltoallv topo_comm Datatype.int ~send_counts:counts ~recv_counts data

let bfs mpi (g : Distgraph.t) ~(source : int) ~(exchanger : exchanger) : int array =
  let comm = Kamping.Communicator.of_mpi mpi in
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
  let st = Common.create g ~source in
  (* Exchange the level's blocks and relax what arrives. *)
  let exchange ~level =
    let relax received = Common.relax st received ~level in
    match exchanger with
    | Dense_mpi ->
        let data, send_counts = Common.flatten st in
        let recv_counts = Coll.alltoall mpi Datatype.int send_counts in
        let send_displs = Coll.exclusive_prefix_sum send_counts in
        let recv_displs = Coll.exclusive_prefix_sum recv_counts in
        relax
          (Coll.alltoallv mpi Datatype.int ~send_counts ~send_displs ~recv_counts
             ~recv_displs data)
    | Kamping -> relax (Kamping.Flatten.alltoallv comm Datatype.int (Common.buckets st))
    | Neighbor ->
        relax (neighbor_exchange (Option.get static_topo) (Lazy.force neighbors) st)
    | Neighbor_rebuild ->
        let nbs = Lazy.force neighbors in
        let topo = Comm_ops.dist_graph_create_adjacent mpi ~sources:nbs ~destinations:nbs in
        relax (neighbor_exchange topo nbs st)
    | Sparse ->
        let incoming =
          Kamping_plugins.Sparse_alltoall.alltoallv comm Datatype.int (Common.outgoing st)
        in
        List.iter (fun (_, block) -> relax block) incoming
    | Grid ->
        let data, send_counts = Common.flatten st in
        relax
          (Kamping_plugins.Grid_kd.alltoallv (Option.get grid) Datatype.int ~send_counts
             data)
  in
  let level = ref 0 in
  let globally_empty () =
    Kamping.Collectives.allreduce_single comm Datatype.bool Reduce_op.bool_and
      (Common.frontier_is_empty st)
  in
  while not (globally_empty ()) do
    Common.expand st ~level:!level;
    exchange ~level:!level;
    Common.advance st;
    incr level
  done;
  Common.dist st
