(** Datatype signatures, checked on every message match.

    MPI requires send and receive type signatures to agree; C's lack of
    introspection makes violations a classic source of silent corruption.
    The simulator checks signatures at matching time (assertion level >= 1)
    and raises ERR_TYPE on disagreement — the runtime mirror of the
    compile-time guarantees of paper §III-D.

    A signature is a run-length-encoded sequence of base kinds.  [Blob]
    is the opaque byte kind (trivially-copyable structs): blob runs match
    blob runs of equal byte count regardless of segmentation, like
    MPI_BYTE.  [Byte_string] is one length-framed byte string
    ([Datatype.bytes]), so a string of bytes never matches a run of
    [Blob] bytes. *)

type base = Int64 | Int32 | Float64 | Float32 | Char | Bool | Blob | Byte_string

type t = (base * int) list
(** Runs of positive count; adjacent bases differ (normalized form). *)

val empty : t

val of_base : ?count:int -> base -> t

(** Normalizing concatenation (merges adjacent equal bases). *)
val append : t -> t -> t

val concat : t list -> t

val repeat : t -> int -> t

val size_in_bytes : t -> int

(** Structural equality of normalized signatures. *)
val matches : t -> t -> bool

(** [repeats_match a b n] is [matches (repeat a n) (repeat b n)], without
    building either repetition when [a] and [b] already match. *)
val repeats_match : t -> t -> int -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
