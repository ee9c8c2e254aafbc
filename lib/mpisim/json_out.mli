(** Minimal append-only JSON emitter used by the observability layer
    (Chrome-trace export, stats dumps, benchmark records).

    Writers append scalars into a [Buffer]; {!seq} handles the commas of
    objects and arrays.  Non-finite floats are emitted as [null] so the
    output always parses. *)

val int : Buffer.t -> int -> unit

val float : Buffer.t -> float -> unit

val bool : Buffer.t -> bool -> unit

(** A comma-tracking object or array in progress. *)
type seq

val start_obj : Buffer.t -> seq

val start_arr : Buffer.t -> seq

(** Write the separator due before the next array element. *)
val sep : seq -> unit

(** Write the separator and ["key":] prefix of an object field; the caller
    writes the value. *)
val key : seq -> string -> unit

val end_obj : seq -> unit

val end_arr : seq -> unit

val field_str : seq -> string -> string -> unit

val field_int : seq -> string -> int -> unit

val field_float : seq -> string -> float -> unit
