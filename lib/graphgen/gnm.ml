(* Erdős–Rényi G(n, m) graphs (uniform random edges).

   Properties driving Fig. 10: essentially no locality — an edge's
   endpoints are uniform over all ranks, so almost every edge crosses rank
   boundaries — and low diameter.

   Generation is communication-free in the KaGen [38] sense: edge [e]'s
   endpoints are pure hashes of (seed, e), and rank r generates the edge
   indices congruent to r mod p.  The only communication is the ownership
   exchange in [Distgraph.build_from_edges]. *)

open Mpisim

let generate (comm : Kamping.Communicator.t) ~(n_per_rank : int) ~(m_per_rank : int)
    ~(seed : int) : Distgraph.t =
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  let n = n_per_rank * p in
  let m = m_per_rank * p in
  if n < 2 then Errdefs.usage_error "Gnm.generate: need at least 2 vertices";
  let edges = Distgraph.Edges.create comm ~n_global:n in
  let e = ref r in
  while !e < m do
    let u = Xoshiro.hash_int ~seed ~stream:1 ~counter:!e ~bound:n in
    (* Avoid self loops by drawing v from the remaining n-1 vertices. *)
    let v0 = Xoshiro.hash_int ~seed ~stream:2 ~counter:!e ~bound:(n - 1) in
    let v = if v0 >= u then v0 + 1 else v0 in
    Distgraph.Edges.add edges u v;
    e := !e + p
  done;
  Distgraph.build_from_edges comm edges
