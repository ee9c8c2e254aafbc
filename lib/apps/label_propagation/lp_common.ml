(* Shared parts of size-constrained label propagation (the dKaMinPar [32]
   coarsening component, paper §IV-B).

   Every vertex starts in its own cluster (label = its global id).  In each
   round, a vertex adopts the most frequent label among its neighbors,
   subject to a maximum cluster size; afterwards the new labels of boundary
   vertices are pushed to the ranks that hold ghost copies, and cluster
   sizes are re-synchronized.  The *local* computation lives here; the
   three sibling modules implement only the exchange, in the three styles
   the paper compares (plain / KaMPIng / application-specific layer). *)

open Graphgen

type state = {
  g : Distgraph.t;
  labels : int array;  (* per local vertex *)
  ghost_labels : (int, int) Hashtbl.t;  (* global vertex id -> label *)
  cluster_sizes : (int, int) Hashtbl.t;  (* label -> size (approximate) *)
  max_cluster_size : int;
}

let create (g : Distgraph.t) ~max_cluster_size =
  let labels = Array.init (max 1 (Distgraph.n_local g)) (fun l ->
      if l < Distgraph.n_local g then Distgraph.global_of_local g l else 0)
  in
  let ghost_labels = Hashtbl.create 64 in
  (* Ghosts start in their own singleton clusters too. *)
  for l = 0 to Distgraph.n_local g - 1 do
    Distgraph.iter_neighbors g l (fun u ->
        if not (Distgraph.is_local g u) then Hashtbl.replace ghost_labels u u)
  done;
  let cluster_sizes = Hashtbl.create 64 in
  { g; labels; ghost_labels; cluster_sizes; max_cluster_size }

let label_of st (u : int) : int =
  if Distgraph.is_local st.g u then st.labels.(Distgraph.local_of_global st.g u)
  else try Hashtbl.find st.ghost_labels u with Not_found -> u

let cluster_size st label = try Hashtbl.find st.cluster_sizes label with Not_found -> 1

(* One local pass: returns the (local id, old label, new label) moves.
   Deterministic: ties break towards the smaller label. *)
let local_pass st : (int * int * int) list =
  let moves = ref [] in
  for l = 0 to Distgraph.n_local st.g - 1 do
    if Distgraph.degree st.g l > 0 then begin
      let histogram = Hashtbl.create 8 in
      Distgraph.iter_neighbors st.g l (fun u ->
          let lab = label_of st u in
          Hashtbl.replace histogram lab (1 + (try Hashtbl.find histogram lab with Not_found -> 0)));
      let my_label = st.labels.(l) in
      let best = ref my_label and best_count = ref 0 in
      Hashtbl.iter
        (fun lab count ->
          let admissible =
            lab = my_label || cluster_size st lab < st.max_cluster_size
          in
          if admissible && (count > !best_count || (count = !best_count && lab < !best))
          then begin
            best := lab;
            best_count := count
          end)
        histogram;
      if !best <> my_label then begin
        moves := (l, my_label, !best) :: !moves;
        st.labels.(l) <- !best
      end
    end
  done;
  !moves

(* Apply the label moves to the (approximate) cluster sizes. *)
let apply_size_deltas st (deltas : (int * int) list) =
  List.iter
    (fun (label, d) ->
      Hashtbl.replace st.cluster_sizes label (d + cluster_size st label))
    deltas

(* The boundary updates a round must push: for every moved vertex that has
   a remote neighbor, (owner rank of the ghost copy, (vertex, new label)). *)
let boundary_updates st (moves : (int * int * int) list) :
    (int, (int * int) list) Hashtbl.t =
  let out : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (l, _, new_label) ->
      let v = Distgraph.global_of_local st.g l in
      let dests = Hashtbl.create 4 in
      Distgraph.iter_neighbors st.g l (fun u ->
          if not (Distgraph.is_local st.g u) then
            Hashtbl.replace dests (Distgraph.owner st.g u) ());
      Hashtbl.iter
        (fun dest () ->
          Hashtbl.replace out dest
            ((v, new_label) :: (try Hashtbl.find out dest with Not_found -> [])))
        dests)
    moves;
  out

let apply_ghost_updates st (updates : (int * int) array) =
  Array.iter (fun (v, label) -> Hashtbl.replace st.ghost_labels v label) updates

(* Size deltas caused by this rank's moves, as (label, +/-1) pairs. *)
let size_deltas (moves : (int * int * int) list) : (int * int) list =
  List.concat_map (fun (_, old_l, new_l) -> [ (old_l, -1); (new_l, 1) ]) moves

let n_distinct_labels st =
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun l lab -> if l < Distgraph.n_local st.g then Hashtbl.replace seen lab ())
    st.labels;
  Hashtbl.length seen

(* [f] over the (key, value) pair type, committed for the call (§III-D1);
   built per run, as [Engine.run_many] runs share process-wide values. *)
let with_pair_dt f = Mpisim.Datatype.(with_committed (pair int int)) f
