(** Serialization codecs (the Cereal analogue, paper §III-D3).

    A ['a t] turns values — including heap-structured ones no fixed-size
    datatype can express — into bytes and back.  Codecs compose, and
    {!map} adapts a codec across an isomorphism (how user record types
    describe their members). *)

type 'a t = {
  name : string;
  encode : Mpisim.Wire.writer -> 'a -> unit;
  decode : Mpisim.Wire.reader -> 'a;
}

exception Decode_error of string

val decode_error : ('a, unit, string, 'b) format4 -> 'a

val make :
  name:string ->
  encode:(Mpisim.Wire.writer -> 'a -> unit) ->
  decode:(Mpisim.Wire.reader -> 'a) ->
  'a t

val name : 'a t -> string

(** {1 Primitives} *)

val unit : unit t

val bool : bool t

val char : char t

val int : int t

val int32 : int32 t

val int64 : int64 t

val float : float t

(** LEB128 variable-length non-negative integer. *)
val varint : int t

(** Length-prefixed. *)
val string : string t

val bytes : Bytes.t t

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val option : 'a t -> 'a option t

val result : 'a t -> 'e t -> ('a, 'e) Result.t t

val list : 'a t -> 'a list t

val array : 'a t -> 'a array t

(** Serialized as (key, value) pairs; decoding rebuilds the table. *)
val hashtbl : 'k t -> 'v t -> ('k, 'v) Hashtbl.t t

(** Adapt across an isomorphism: [inject] on decode, [project] on
    encode. *)
val map : name:string -> inject:('a -> 'b) -> project:('b -> 'a) -> 'a t -> 'b t

(** Tie a recursive codec. *)
val fix : name:string -> ('a t -> 'a t) -> 'a t

(** {1 Whole-value entry points} *)

val encode_to_bytes : 'a t -> 'a -> Bytes.t

(** [decode_wire c r] is [c.decode r] with the wire layer's failures
    ([Wire.Underflow], [Wire.Decode_error]) re-raised as {!Decode_error}.
    Declared lengths are checked against the bytes left before anything
    is allocated for them, so a hostile or truncated input fails with
    {!Decode_error} rather than [Out_of_memory] or [Invalid_argument]. *)
val decode_wire : 'a t -> Mpisim.Wire.reader -> 'a

(** {!decode_wire} over a whole buffer; raises {!Decode_error} on
    malformed input or trailing bytes. *)
val decode_from_bytes : 'a t -> Bytes.t -> 'a

(** Versioned codec (Cereal-style class versioning): the encoding carries
    a version byte; decoding dispatches to the matching legacy decoder
    (each of which must yield the *current* representation). *)
val versioned : version:int -> decoders:(int * 'a t) list -> 'a t -> 'a t
