(** Process groups: ordered sets of world ranks (MPI_Group analogue).

    Position within the group is the group rank.  All constructors check
    for duplicates and negative ranks. *)

type t = int array

(** Raises [Usage_error] on duplicates or negative entries. *)
val of_ranks : int array -> t

(** The group 0..size-1. *)
val world : size:int -> t

val size : t -> int

(** World rank at group rank [i].  Raises [Usage_error] out of range. *)
val world_rank : t -> int -> int

(** Group rank of a world rank, if a member. *)
val rank_of_world : t -> int -> int option

val mem : t -> int -> bool

(** Subgroup of the given group ranks, in that order. *)
val incl : t -> int array -> t

(** The group without the given group ranks, order preserved. *)
val excl : t -> int array -> t

(** Set operations; [union] and [difference] preserve first-operand
    order. *)
val union : t -> t -> t

val intersection : t -> t -> t

val difference : t -> t -> t

val equal : t -> t -> bool

val to_list : t -> int list
