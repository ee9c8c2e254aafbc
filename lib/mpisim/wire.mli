(** Byte-level wire format: every simulated message is really packed into
    bytes through its datatype descriptor, so layout decisions (paper
    §III-D) have genuine CPU and volume consequences.

    All integers are little-endian.  A {!writer} is a growable buffer; a
    {!reader} is a bounds-checked cursor over immutable bytes. *)

exception Underflow of { wanted : int; available : int }

(** A syntactically invalid encoding (e.g. a boolean byte that is neither
    0 nor 1): corrupt or mistyped input, reported like {!Underflow} rather
    than as a call-site [Invalid_argument]. *)
exception Decode_error of { what : string; got : int }

type writer

val create_writer : ?capacity:int -> unit -> writer

val length : writer -> int

val put_char : writer -> char -> unit

val put_uint8 : writer -> int -> unit

val put_int64 : writer -> int64 -> unit

val put_int : writer -> int -> unit

val put_int32 : writer -> int32 -> unit

val put_float : writer -> float -> unit

val put_float32 : writer -> float -> unit

val put_bool : writer -> bool -> unit

val put_bytes : writer -> Bytes.t -> pos:int -> len:int -> unit

val put_string : writer -> string -> unit

(** [n] zero bytes (models alignment gaps, §III-D4). *)
val put_padding : writer -> int -> unit

(** Reserve [len] bytes for in-place writing and return their offset in
    {!writer_storage} — the single-bulk-copy path for trivially-copyable
    types.  Allocation-free. *)
val reserve_offset : writer -> int -> int

(** The writer's current storage; replaced when a later write grows it. *)
val writer_storage : writer -> Bytes.t

(** Copy of the written bytes. *)
val contents : writer -> Bytes.t

(** The underlying storage and length, without copying; invalidated by
    further writes. *)
val unsafe_contents : writer -> Bytes.t * int

val reset : writer -> unit

type reader

val reader_of_bytes : ?pos:int -> ?len:int -> Bytes.t -> reader

(** [reader_of_slice b ~pos ~len] reads the [len] bytes of [b] from [pos];
    the same reader as [reader_of_bytes ~pos ~len b], without allocating
    the optional arguments. *)
val reader_of_slice : Bytes.t -> pos:int -> len:int -> reader

val remaining : reader -> int

val get_char : reader -> char

val get_uint8 : reader -> int

val get_int64 : reader -> int64

val get_int : reader -> int

val get_int32 : reader -> int32

val get_float : reader -> float

val get_float32 : reader -> float

val get_bool : reader -> bool

val get_bytes : reader -> int -> Bytes.t

val get_string : reader -> int -> string

val skip : reader -> int -> unit

(** Zero-copy access to the next [len] bytes: advances the cursor and
    returns their offset in {!reader_storage}, or raises {!Underflow}.
    Allocation-free. *)
val read_offset : reader -> int -> int

(** The bytes the reader reads from; must not be mutated. *)
val reader_storage : reader -> Bytes.t

(** {1 Writer-storage pool}

    One pool per rank in the runtime: a send packs into a pooled buffer,
    {!unsafe_contents} transfers the storage into the message without a
    copy, and the consumer hands it back with {!recycle} after unpacking.
    Between acquire and recycle the storage belongs to exactly one
    message; after recycle any slice of it is dead. *)

type pool

(** [create_pool ()] keeps at most [max_buffers] free buffers and drops
    buffers larger than [max_retain] bytes on recycle, so one huge
    transfer cannot pin memory. *)
val create_pool : ?max_buffers:int -> ?max_retain:int -> unit -> pool

(** The pool's writer, emptied, over pooled (or, on a miss, newly
    allocated) storage.  [capacity] only sizes a miss; pooled buffers
    grow on demand.  A pool has one writer record, which every acquire
    hands out again: a writer is good until the next acquire on its pool,
    so take its storage ({!writer_storage}, {!unsafe_contents}) first. *)
val acquire : pool -> capacity:int -> writer

(** Return detached writer storage to the pool. *)
val recycle : pool -> Bytes.t -> unit

(** Guarantee that the next {!acquire} returns a buffer of at least
    [capacity] bytes without allocating: ensures the head of the free
    list is large enough, replacing it when the pool is full.  Called by
    persistent requests at init so per-cycle packing never grows a
    writer.  [capacity] is clamped to the pool's retention bound. *)
val preheat : pool -> capacity:int -> unit

(** (hits, misses, currently free) — for tests and diagnostics. *)
val pool_stats : pool -> int * int * int

(** {1 Payload checksums}

    CRC-32 (IEEE 802.3) over [len] bytes of [b] starting at [pos] — the
    reliable-delivery layer's corruption check.  The 256-entry table is
    built lazily on first use. *)
val crc32 : Bytes.t -> pos:int -> len:int -> int
