(** Growable container used for output parameters.

    OCaml arrays are fixed-size, so resize policies need a vector: an
    array plus a logical length.  Collectives write results into vecs
    under a {!Resize_policy.t} via {!write_array}. *)

type 'a t

val create : unit -> 'a t

(** Copying constructor. *)
val of_array : 'a array -> 'a t

val length : 'a t -> int

val capacity : 'a t -> int

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** Copy of the first [length] elements. *)
val to_array : 'a t -> 'a array

val clear : 'a t -> unit

val push : 'a t -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit

(** Write [src] into the vec under [policy]; raises [Usage_error] when
    [No_resize] and the vec is too small (paper §III-C). *)
val write_array : Resize_policy.t -> 'a t -> 'a array -> unit
