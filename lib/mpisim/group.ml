(* Process groups: ordered sets of world ranks (MPI_Group analogue). *)

type t = int array
(* Invariant: entries are distinct, each a valid world rank.  Order is
   significant: position = rank within the group. *)

let of_ranks ranks =
  let seen = Hashtbl.create (Array.length ranks) in
  Array.iter
    (fun r ->
      if r < 0 then Errdefs.usage_error "Group.of_ranks: negative rank %d" r;
      if Hashtbl.mem seen r then Errdefs.usage_error "Group.of_ranks: duplicate rank %d" r;
      Hashtbl.replace seen r ())
    ranks;
  Array.copy ranks

let world ~size = Array.init size Fun.id

let size (g : t) = Array.length g

let world_rank (g : t) i =
  if i < 0 || i >= Array.length g then Errdefs.usage_error "Group: rank %d out of range" i;
  g.(i)

(* Rank of world rank [w] within the group, if a member. *)
let rank_of_world (g : t) w =
  let rec find i = if i >= Array.length g then None else if g.(i) = w then Some i else find (i + 1) in
  find 0

let mem (g : t) w = Option.is_some (rank_of_world g w)

let incl (g : t) ranks = of_ranks (Array.map (world_rank g) ranks)

let excl (g : t) ranks =
  let excluded = Hashtbl.create (Array.length ranks) in
  Array.iter
    (fun i ->
      ignore (world_rank g i);
      Hashtbl.replace excluded i ())
    ranks;
  Array.of_list
    (List.filteri (fun i _ -> not (Hashtbl.mem excluded i)) (Array.to_list g))

let union (a : t) (b : t) =
  let seen = Hashtbl.create (Array.length a + Array.length b) in
  let out = ref [] in
  Array.iter
    (fun w ->
      if not (Hashtbl.mem seen w) then begin
        Hashtbl.replace seen w ();
        out := w :: !out
      end)
    a;
  Array.iter
    (fun w ->
      if not (Hashtbl.mem seen w) then begin
        Hashtbl.replace seen w ();
        out := w :: !out
      end)
    b;
  Array.of_list (List.rev !out)

let intersection (a : t) (b : t) =
  let in_b = Hashtbl.create (Array.length b) in
  Array.iter (fun w -> Hashtbl.replace in_b w ()) b;
  Array.of_list (List.filter (Hashtbl.mem in_b) (Array.to_list a))

let difference (a : t) (b : t) =
  let in_b = Hashtbl.create (Array.length b) in
  Array.iter (fun w -> Hashtbl.replace in_b w ()) b;
  Array.of_list (List.filter (fun w -> not (Hashtbl.mem in_b w)) (Array.to_list a))

let equal (a : t) (b : t) = a = b

let to_list (g : t) = Array.to_list g
