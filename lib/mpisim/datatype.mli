(** Typed datatype descriptors (the MPI_Datatype analogue, paper §III-D).

    A ['a t] maps values of type ['a] to the wire: per-element byte size,
    a {!Signature.t} for send/receive matching checks, and pack/unpack
    functions.  Every message really is packed through its descriptor, so
    layout decisions have genuine CPU and volume consequences.

    - builtins correspond to MPI's basic types and are permanently
      committed;
    - [record] and [record_with_gaps] build struct types from one typed
      field list — the analogue of MPI_Type_create_struct driven by PFR
      reflection: the layout cannot drift from the data because the
      fields {e are} the accessors;
    - [blob] maps a trivially-copyable value to one contiguous byte block
      (single bulk copy, alignment gaps included on the wire) — the
      library's preferred default per §III-D4;
    - [create] supports fully dynamic, runtime-sized types (§III-D2).

    Derived types must be committed before use in communication and freed
    afterwards; {!live_derived_count} lets tests assert the absence of
    resource leaks.  {!with_committed} scopes commit/free automatically
    (Construct-On-First-Use with guaranteed cleanup). *)

type kind = Builtin | Derived

(** Bulk fast-path kernel for fixed-size, contiguously-encoded element
    types: one buffer reservation and one loop per element run.  [int],
    [float] and [char]/[byte] run typed loops with no per-element closure
    call, float boxing or write barrier; other kernels call a store/load
    closure per element.  Chosen once at type-construction (= commit for
    builtins) time; [None] means the general per-element path. *)
type 'a bulk_kernel

(** Commit/free state of one type: builtins are born committed; a derived
    type starts uncommitted.  {!without_bulk} copies share it. *)
type state

type 'a t = {
  name : string;
  kind : kind;
  elem_size : int;  (** wire bytes per element *)
  signature : Signature.t;  (** per element *)
  pack : Wire.writer -> 'a -> unit;
  unpack : Wire.reader -> 'a;
  bulk : 'a bulk_kernel option;
  state : state;
  id : 'a Type.Id.t;
      (** the type's identity, made once per constructed type and shared
          by its {!without_bulk} copies: where two ranks meet with their
          own ['a t] (an RMA window's creation), it proves they agree on
          ['a] without a cast *)
}

(** {1 Commit/free lifecycle} *)

(** Mark a derived type ready for communication.  Raises
    [Invalid_argument] if already freed. *)
val commit : 'a t -> unit

(** Release a derived type.  Raises [Invalid_argument] on double free or
    on builtins. *)
val free : 'a t -> unit

val is_committed : 'a t -> bool

(** Derived types currently committed and not freed, across the process
    (leak detector; safe to read from any domain). *)
val live_derived_count : unit -> int

(** [with_committed t f] commits [t] if needed, runs [f t], and frees [t]
    again if this call committed it. *)
val with_committed : 'a t -> ('a t -> 'b) -> 'b

(** {1 Builtins} *)

val int : int t

val int32 : int32 t

val int64 : int64 t

val float : float t

(** 32-bit floats (lossy round-trip of OCaml floats). *)
val float32 : float t

val char : char t

(** Like [char] but with an opaque [Blob] signature (MPI_BYTE). *)
val byte : char t

val bool : bool t

(** {1 Derived-type constructors} *)

(** Fully custom / dynamic type: sizes may be computed at runtime.
    [size] is the bytes one element occupies on the wire (at least);
    {!unpack_array} rejects a count the reader cannot hold at that
    size. *)
val create :
  name:string ->
  size:int ->
  signature:Signature.t ->
  pack:(Wire.writer -> 'a -> unit) ->
  unpack:(Wire.reader -> 'a) ->
  'a t

(** Fixed-count block of a base type; the array length is checked at
    pack time. *)
val contiguous : count:int -> 'a t -> 'a array t

val pair : 'a t -> 'b t -> ('a * 'b) t

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** Fixed-size option: one presence byte plus (possibly padding) payload
    space, so elements stay fixed-size. *)
val option_ : 'a t -> 'a option t

(** {1 Struct types from field lists} *)

type ('r, 'a) field

(** [field ?pad_after name dt get] describes one struct member;
    [pad_after] models an alignment gap after it (shipped only by
    {!record_with_gaps}). *)
val field : ?pad_after:int -> string -> 'a t -> ('r -> 'a) -> ('r, 'a) field

(** The fields of a struct in wire order, written as a list literal:
    [[ field "id" int (fun p -> p.id); field "x" float (fun p -> p.x) ]].
    ['k] is the type of the constructor that rebuilds the struct from the
    field values ([int -> float -> 'r] here), so a list that does not line
    up with the constructor does not type-check. *)
type ('r, 'k) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) field * ('r, 'k) fields -> ('r, 'a -> 'k) fields

(** [record name fields make]: the gap-skipping struct type (the analogue
    of MPI_Type_create_struct): fields packed one after another, padding
    left off the wire, signature the concatenation of the fields'. *)
val record : string -> ('r, 'k) fields -> 'k -> 'r t

(** Like {!record} but every field's [pad_after] is shipped as zero bytes
    in the same pass — the trivially-copyable "contiguous bytes" default
    of §III-D4.  The signature is opaque ([Blob]). *)
val record_with_gaps : string -> ('r, 'k) fields -> 'k -> 'r t

(** Opaque contiguous byte block written/read in place (zero-copy with the
    wire buffer).  [write buf pos v] must fill exactly [size] bytes. *)
val blob :
  name:string ->
  size:int ->
  write:(Bytes.t -> int -> 'a -> unit) ->
  read:(Bytes.t -> int -> 'a) ->
  'a t

(** {1 Bulk helpers} *)

(** The bulk helpers dispatch once on the type's kernel: builtins, [blob]
    and fixed compositions of them ([contiguous], [pair]) take a
    single-reservation fast path; everything else packs element by
    element.  [pack_array] and [unpack_into] raise [Invalid_argument] for
    a range outside the array.  [unpack_array] and [unpack_into] raise
    {!Wire.Underflow} when the reader holds fewer than [count] elements
    — for [unpack_array], before allocating anything proportional to
    [count] (on the general path a type's [size] is taken as the least
    bytes one element occupies). *)

val pack_array : 'a t -> Wire.writer -> 'a array -> pos:int -> count:int -> unit

val unpack_array : 'a t -> Wire.reader -> count:int -> 'a array

val unpack_into : 'a t -> Wire.reader -> 'a array -> pos:int -> count:int -> unit

(** [unpack_array] and [unpack_into] over the [len] bytes of [b] from
    [off] (a message's payload slice), with the same errors: the fast path
    reads the run in place and builds no {!Wire.reader}. *)
val unpack_slice_array : 'a t -> Bytes.t -> off:int -> len:int -> count:int -> 'a array

val unpack_slice_into :
  'a t -> Bytes.t -> off:int -> len:int -> 'a array -> pos:int -> count:int -> unit

(** Whether the type carries a bulk kernel (takes the fast path). *)
val bulk_available : 'a t -> bool

(** The same type forced onto the general per-element path (shared
    commit state) — the "before" side for equivalence tests and overhead
    benchmarks. *)
val without_bulk : 'a t -> 'a t

(** A placeholder decoded from zero bytes; seeds freshly allocated receive
    arrays. *)
val zero_elem : 'a t -> 'a

val size_of_count : 'a t -> int -> int

val signature_of_count : 'a t -> int -> Signature.t

val name : 'a t -> string

val elem_size : 'a t -> int
