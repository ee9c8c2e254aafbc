(* Shared, communication-free parts of the distributed BFS
   implementations (paper §IV-B, Fig. 9).

   The graph is distributed with each rank holding a contiguous vertex
   range as an adjacency array.  BFS proceeds level-synchronously: expand
   the local frontier into per-owner buckets of remote candidates, exchange
   the buckets (this is the part that differs per binding / exchanger, see
   the sibling modules), then relax the received candidates.  [dist.(l)]
   ends up holding the hop count from the source, or [undef]. *)

open Graphgen

let undef = max_int

(* Expand the local frontier: relax local neighbors immediately, bucket
   remote ones by owner.  The hot loop of every BFS here, so it runs on
   the CSR arrays in place and makes no cross-module call per edge
   (DESIGN.md §13).  Remote candidates gather in [lists.(owner)] and
   [order] notes each owner at its first candidate; the table is then
   filled once per owner in that order — the keys and insertion order a
   per-edge [Hashtbl.replace] would give, so the table's fold order, which
   is the exchangers' send order and hence part of the modelled time,
   does not depend on how the buckets were built. *)
let expand_frontier (g : Distgraph.t) (dist : int array) (frontier : int list)
    ~(level : int) : int list ref * (int, int list) Hashtbl.t =
  let { Distgraph.first_vertex; n_local; n_global; chunk; xadj; adjncy; _ } = g in
  let next_local = ref [] in
  let lists = Array.make g.comm_size [] in
  let order = ref [] in
  let rec expand = function
    | [] -> ()
    | l :: rest ->
        for i = xadj.(l) to xadj.(l + 1) - 1 do
          let u = adjncy.(i) in
          let lu = u - first_vertex in
          if lu >= 0 && lu < n_local then begin
            if dist.(lu) = undef then begin
              dist.(lu) <- level + 1;
              next_local := lu :: !next_local
            end
          end
          else begin
            (* Out of range: [owner] raises its usage error. *)
            if u < 0 || u >= n_global then ignore (Distgraph.owner g u);
            let owner = u / chunk in
            (match lists.(owner) with [] -> order := owner :: !order | _ :: _ -> ());
            lists.(owner) <- u :: lists.(owner)
          end
        done;
        expand rest
  in
  expand frontier;
  let buckets : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun owner -> Hashtbl.add buckets owner lists.(owner)) (List.rev !order);
  (next_local, buckets)

(* Relax remotely received candidates (global vertex ids owned here). *)
let relax_received (g : Distgraph.t) (dist : int array) (received : int array)
    ~(level : int) (next_frontier : int list ref) : unit =
  let { Distgraph.first_vertex; n_local; _ } = g in
  for i = 0 to Array.length received - 1 do
    let u = received.(i) in
    let lu = u - first_vertex in
    (* Not ours: [local_of_global] raises its usage error. *)
    if lu < 0 || lu >= n_local then ignore (Distgraph.local_of_global g u);
    if dist.(lu) = undef then begin
      dist.(lu) <- level + 1;
      next_frontier := lu :: !next_frontier
    end
  done

(* [Array.of_list (List.rev vs)], filled from the back with no reversed
   copy of the list. *)
let array_of_rev_list = function
  | [] -> [||]
  | x :: _ as vs ->
      let n = List.length vs in
      let a = Array.make n x in
      let rec fill i = function
        | [] -> ()
        | v :: rest ->
            a.(i) <- v;
            fill (i - 1) rest
      in
      fill (n - 1) vs;
      a

let initial_state (g : Distgraph.t) ~(source : int) : int array * int list =
  let dist = Array.make (max 1 (Distgraph.n_local g)) undef in
  if Distgraph.is_local g source then begin
    let l = Distgraph.local_of_global g source in
    dist.(l) <- 0;
    (dist, [ l ])
  end
  else (dist, [])

(* Ranks adjacent to us via at least one cut edge — the static
   communication topology of this BFS (used by the neighborhood-collective
   exchanger). *)
let cut_neighbors (g : Distgraph.t) : int array =
  let seen = Hashtbl.create 16 in
  for l = 0 to Distgraph.n_local g - 1 do
    Distgraph.iter_neighbors g l (fun u ->
        if not (Distgraph.is_local g u) then Hashtbl.replace seen (Distgraph.owner g u) ())
  done;
  let out = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
  Array.of_list (List.sort compare out)
