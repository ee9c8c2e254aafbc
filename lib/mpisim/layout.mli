(** MPL-style layouts: programmatic views over chunks of contiguous
    memory (paper §II / §III-D2 — the dynamic-type construction approach
    the authors plan to adopt).

    A layout selects element positions out of a flat array; {!extract}
    packs the selection and {!scatter_into} places it back. *)

type t

(** Positions 0..n-1. *)
val contiguous : int -> t

(** [count] blocks of [blocklen] elements, [stride] apart (halo exchanges,
    matrix columns, ...).  Requires [stride >= blocklen]. *)
val vector : count:int -> blocklen:int -> stride:int -> t

(** Explicit (displacement, length) blocks. *)
val indexed : (int * int) list -> t

(** Shift a layout by [k] positions. *)
val offset : int -> t -> t

(** Selections of each layout, in order. *)
val concat : t list -> t

(** Number of selected elements. *)
val element_count : t -> int

(** One past the highest selected position. *)
val extent : t -> int

val positions : t -> int list

(** Gather the selected elements into a fresh packed array. *)
val extract : t -> 'a array -> 'a array

(** Write packed elements back into the selected positions. *)
val scatter_into : t -> packed:'a array -> 'a array -> unit
