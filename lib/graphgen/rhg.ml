(* Random-hyperbolic-like graphs.

   True RHG generation needs hyperbolic geometric range queries; this is a
   deliberately simplified model that preserves the three properties
   Fig. 10 depends on (see DESIGN.md substitutions):

   - a power-law degree distribution with high-degree hubs
     (Pareto-distributed out-stubs, exponent [gamma]);
   - moderate locality: stub targets are drawn at log-uniform vertex-id
     distance, and ids are laid out by angle, so short edges dominate but
     long chords exist;
   - low diameter (the long chords and hubs).

   Generation is communication-free per vertex: degrees and targets are
   hashes of (seed, vertex, stub). *)

open Mpisim

let default_gamma = 2.8

let default_avg_degree = 8.

(* Pareto draw with E[d] ~ avg_degree, capped to keep hubs manageable. *)
let degree_of ~seed ~gamma ~avg_degree ~n v =
  let u = Xoshiro.hash_float ~seed ~stream:21 ~counter:v in
  let u = if u < 1e-12 then 1e-12 else u in
  let alpha = gamma -. 1. in
  let d_min = avg_degree *. (alpha -. 1.) /. alpha in
  let d_min = if d_min < 1. then 1. else d_min in
  let d = d_min *. (u ** (-1. /. alpha)) in
  let cap = Int.max 4 (n / 4) in
  Int.min cap (int_of_float d)

let generate (comm : Kamping.Communicator.t) ~(n_per_rank : int) ?(gamma = default_gamma)
    ?(avg_degree = default_avg_degree) ~(seed : int) () : Distgraph.t =
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  let n = n_per_rank * p in
  let first = r * n_per_rank in
  let edges = Distgraph.Edges.create comm ~n_global:n in
  for j = 0 to n_per_rank - 1 do
    let v = first + j in
    let d = degree_of ~seed ~gamma ~avg_degree ~n v in
    for s = 0 to d - 1 do
      let counter = (v * 97) + s in
      (* Log-uniform distance in [1, n/2]: short edges dominate, long
         chords keep the diameter low. *)
      let u = Xoshiro.hash_float ~seed ~stream:22 ~counter in
      let span = float_of_int (Int.max 2 (n / 2)) in
      let dist = int_of_float (exp (u *. log span)) in
      let dist = Int.max 1 (Int.min (n - 1) dist) in
      let sign = if Xoshiro.hash_int ~seed ~stream:23 ~counter ~bound:2 = 0 then 1 else -1 in
      let t = ((v + (sign * dist)) mod n + n) mod n in
      Distgraph.Edges.add edges v t
    done
  done;
  Distgraph.build_from_edges comm edges
