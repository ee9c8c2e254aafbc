(** Reduction operations.

    Built-in operations carry a tag implementations can recognize (the way
    mapping [std::plus] to [MPI_SUM] may enable implementation-side
    optimization, paper §II); [custom] wraps any closure — reduction via
    lambda.  [commutative] governs the reduction-tree shape:
    non-commutative operations are combined strictly in rank order. *)

type builtin = Sum | Prod | Min | Max | Land | Lor | Lxor | Band | Bor | Bxor

type 'a t = {
  name : string;
  f : 'a -> 'a -> 'a;
  commutative : bool;
  builtin : builtin option;
}

(** [custom ~name f] is a user-defined operation; pass
    [~commutative:false] to force rank-ordered combining. *)
val custom : ?commutative:bool -> name:string -> ('a -> 'a -> 'a) -> 'a t

val int_sum : int t

val int_prod : int t

val int_min : int t

val int_max : int t

val int_band : int t

val int_bor : int t

val int_bxor : int t

val float_sum : float t

val float_prod : float t

val float_min : float t

val float_max : float t

val bool_and : bool t

val bool_or : bool t

val bool_xor : bool t

val apply : 'a t -> 'a -> 'a -> 'a
