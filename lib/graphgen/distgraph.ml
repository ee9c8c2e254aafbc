(* Distributed graphs in adjacency-array (CSR) form.

   Vertices 0..n_global-1 are block-distributed: rank r owns the contiguous
   range [r*chunk, min(n, (r+1)*chunk)) with chunk = ceil(n/p) — so
   ownership is computable locally from a vertex id, which every
   distributed graph algorithm here relies on.

   [build_from_edges] turns locally generated edges into a symmetric
   distributed graph: every edge is sent to both endpoints' owners with
   one alltoallv, deduplicated, and compiled to CSR.  This is itself a
   real use of the binding layer. *)

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

(* Directed edges bucketed by the rank that owns their source: one flat
   int buffer per owner, holding (source, target) pairs back to back, so
   an edge costs two int writes and no allocation. *)
module Edges = struct
  type t = {
    n_global : int;
    chunk : int;
    bufs : int array array;  (* per owner; grows by doubling *)
    lens : int array;  (* ints used in [bufs.(owner)] *)
  }

  let create (comm : Kamping.Communicator.t) ~n_global =
    let p = Kamping.Communicator.size comm in
    {
      n_global;
      chunk = chunk_size ~n_global ~comm_size:p;
      bufs = Array.make p [||];
      lens = Array.make p 0;
    }

  let owner es v =
    if v < 0 || v >= es.n_global then
      Errdefs.usage_error "Distgraph.owner_of: vertex %d out of range" v;
    v / es.chunk

  let push es dest u v =
    let len = es.lens.(dest) in
    let buf = es.bufs.(dest) in
    let buf =
      if len + 2 <= Array.length buf then buf
      else begin
        let grown = Array.make (Int.max 64 (2 * Array.length buf)) 0 in
        Array.blit buf 0 grown 0 len;
        es.bufs.(dest) <- grown;
        grown
      end
    in
    buf.(len) <- u;
    buf.(len + 1) <- v;
    es.lens.(dest) <- len + 2

  let add es u v =
    if u <> v then begin
      push es (owner es u) u v;
      push es (owner es v) v u
    end
end

(* Sort [a.(lo) .. a.(hi - 1)]: in place by insertion for the short rows
   of the local generators, through a copy for a hub's long one. *)
let sort_range (a : int array) lo hi =
  if hi - lo <= 24 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let row = Array.sub a lo (hi - lo) in
    Array.sort Int.compare row;
    Array.blit row 0 a lo (hi - lo)
  end

(* Build a symmetric distributed graph from locally generated edges:
   every owner's pairs travel in one int alltoallv, then the CSR is
   compiled by a counting sort on the local source and an in-place sort
   and dedupe of each row.  Collective. *)
let build_from_edges (comm : Kamping.Communicator.t) (es : Edges.t) : t =
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  if Array.length es.lens <> p then
    Errdefs.usage_error "build_from_edges: edges made for %d ranks, communicator has %d"
      (Array.length es.lens) p;
  let n_global = es.n_global in
  let chunk = chunk_size ~n_global ~comm_size:p in
  let first_vertex = Int.min n_global (r * chunk) in
  let n_local = Int.max 0 (Int.min chunk (n_global - first_vertex)) in
  let data = Array.make (Array.fold_left ( + ) 0 es.lens) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun dest len ->
      Array.blit es.bufs.(dest) 0 data !pos len;
      pos := !pos + len)
    es.lens;
  let mine = Kamping.Collectives.alltoallv comm Datatype.int ~send_counts:es.lens data in
  let m = Array.length mine / 2 in
  (* Counting sort on the local source: [xadj.(l + 1)] counts row [l]. *)
  let xadj = Array.make (n_local + 1) 0 in
  for i = 0 to m - 1 do
    let u = mine.(2 * i) in
    let l = u - first_vertex in
    if l < 0 || l >= n_local then
      Errdefs.usage_error "build_from_edges: misrouted edge (%d, %d) at rank %d" u
        mine.((2 * i) + 1) r;
    xadj.(l + 1) <- xadj.(l + 1) + 1
  done;
  for l = 1 to n_local do
    xadj.(l) <- xadj.(l) + xadj.(l - 1)
  done;
  let adj = Array.make m 0 in
  let fill = Array.sub xadj 0 (Int.max 1 n_local) in
  for i = 0 to m - 1 do
    let l = mine.(2 * i) - first_vertex in
    adj.(fill.(l)) <- mine.((2 * i) + 1);
    fill.(l) <- fill.(l) + 1
  done;
  (* Sort each row and drop its duplicates, compacting toward the front:
     row [l] moves to start at the new [xadj.(l)]. *)
  let w = ref 0 in
  for l = 0 to n_local - 1 do
    let lo = xadj.(l) and hi = xadj.(l + 1) in
    sort_range adj lo hi;
    xadj.(l) <- !w;
    let prev = ref (-1) (* ids are >= 0: [Edges.add] checked them *) in
    for i = lo to hi - 1 do
      let v = adj.(i) in
      if v <> !prev then begin
        adj.(!w) <- v;
        incr w;
        prev := v
      end
    done
  done;
  xadj.(n_local) <- !w;
  let adjncy = if !w = m then adj else Array.sub adj 0 !w in
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
