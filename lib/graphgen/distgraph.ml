(* Distributed graphs in adjacency-array (CSR) form.

   Vertices 0..n_global-1 are block-distributed: rank r owns the contiguous
   range [r*chunk, min(n, (r+1)*chunk)) with chunk = ceil(n/p) — so
   ownership is computable locally from a vertex id, which every
   distributed graph algorithm here relies on.

   [build_from_edges] turns locally generated directed edge lists into a
   symmetric distributed graph: every edge is sent to both endpoints'
   owners with one alltoallv, deduplicated, and compiled to CSR.  This is
   itself a real use of the binding layer. *)

open Mpisim

type t = {
  n_global : int;
  comm_size : int;
  rank : int;
  first_vertex : int;
  n_local : int;
  chunk : int;
  xadj : int array;  (* length n_local + 1 *)
  adjncy : int array;  (* global neighbor ids, sorted per vertex *)
}

let chunk_size ~n_global ~comm_size = (n_global + comm_size - 1) / comm_size

let owner_of ~n_global ~comm_size v =
  if v < 0 || v >= n_global then
    Errdefs.usage_error "Distgraph.owner_of: vertex %d out of range" v;
  v / chunk_size ~n_global ~comm_size

let owner g v = owner_of ~n_global:g.n_global ~comm_size:g.comm_size v

let is_local g v = v >= g.first_vertex && v < g.first_vertex + g.n_local

let local_of_global g v =
  if not (is_local g v) then Errdefs.usage_error "Distgraph: vertex %d is not local" v;
  v - g.first_vertex

let global_of_local g l =
  if l < 0 || l >= g.n_local then Errdefs.usage_error "Distgraph: invalid local index %d" l;
  g.first_vertex + l

let n_local g = g.n_local

let n_global g = g.n_global

let first_vertex g = g.first_vertex

let degree g l = g.xadj.(l + 1) - g.xadj.(l)

let iter_neighbors g l f =
  for i = g.xadj.(l) to g.xadj.(l + 1) - 1 do
    f g.adjncy.(i)
  done

let local_edge_count g = g.xadj.(g.n_local)

(* Number of local edge endpoints whose other end is remote. *)
let cut_edge_count g =
  let cut = ref 0 in
  for i = 0 to local_edge_count g - 1 do
    if not (is_local g g.adjncy.(i)) then incr cut
  done;
  !cut

(* Build a symmetric distributed graph from locally generated directed
   edges.  Each (u, v) pair contributes u->v and v->u; duplicates and self
   loops are dropped.  Collective. *)
let build_from_edges (comm : Kamping.Communicator.t) ~(n_global : int)
    (edges : (int * int) list) : t =
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  let chunk = chunk_size ~n_global ~comm_size:p in
  let first_vertex = min n_global (r * chunk) in
  let n_local = min chunk (n_global - first_vertex) in
  let n_local = max 0 n_local in
  (* Route both directions of every edge to the owner of its source. *)
  let outgoing : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  let push dest e =
    Hashtbl.replace outgoing dest (e :: (try Hashtbl.find outgoing dest with Not_found -> []))
  in
  List.iter
    (fun (u, v) ->
      if u <> v then begin
        push (owner_of ~n_global ~comm_size:p u) (u, v);
        push (owner_of ~n_global ~comm_size:p v) (v, u)
      end)
    edges;
  let pair_dt = Datatype.pair Datatype.int Datatype.int in
  let mine =
    Datatype.with_committed pair_dt (fun dt -> Kamping.Flatten.alltoallv comm dt outgoing)
  in
  (* Compile to CSR with sorted, deduplicated neighbor lists. *)
  let buckets = Array.make (max 1 n_local) [] in
  Array.iter
    (fun (u, v) ->
      let l = u - first_vertex in
      if l < 0 || l >= n_local then
        Errdefs.usage_error "build_from_edges: misrouted edge (%d, %d) at rank %d" u v r;
      buckets.(l) <- v :: buckets.(l))
    mine;
  let xadj = Array.make (n_local + 1) 0 in
  let adj_lists =
    Array.mapi
      (fun l vs ->
        let sorted = List.sort_uniq compare vs in
        xadj.(l + 1) <- List.length sorted;
        sorted)
      (if n_local = 0 then [||] else buckets)
  in
  for l = 1 to n_local do
    xadj.(l) <- xadj.(l) + xadj.(l - 1)
  done;
  let adjncy = Array.make xadj.(n_local) 0 in
  Array.iteri
    (fun l vs ->
      List.iteri (fun i v -> adjncy.(xadj.(l) + i) <- v) vs)
    adj_lists;
  { n_global; comm_size = p; rank = r; first_vertex; n_local; chunk; xadj; adjncy }

(* Global statistics (collective): vertex count, edge-endpoint count, cut
   fraction, max degree. *)
type stats = { vertices : int; edge_endpoints : int; cut_fraction : float; max_degree : int }

let global_stats (comm : Kamping.Communicator.t) (g : t) : stats =
  let local_edges = local_edge_count g in
  let local_cut = cut_edge_count g in
  let local_maxdeg = ref 0 in
  for l = 0 to g.n_local - 1 do
    if degree g l > !local_maxdeg then local_maxdeg := degree g l
  done;
  let totals =
    Kamping.Collectives.allreduce comm Datatype.int Reduce_op.int_sum
      [| local_edges; local_cut |]
  in
  let max_degree =
    Kamping.Collectives.allreduce_single comm Datatype.int Reduce_op.int_max !local_maxdeg
  in
  {
    vertices = g.n_global;
    edge_endpoints = totals.(0);
    cut_fraction = (if totals.(0) = 0 then 0. else float_of_int totals.(1) /. float_of_int totals.(0));
    max_degree;
  }
