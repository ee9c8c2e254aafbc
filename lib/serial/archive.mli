(** Framed archives: a self-describing envelope around codec payloads.

    The header carries a magic number, a format version, and a hash of the
    codec name, so decoding with the wrong codec fails loudly instead of
    silently producing garbage. *)

val encode : 'a Codec.t -> 'a -> Bytes.t

(** [encode] written at the end of [w], with no buffer of its own. *)
val encode_into : 'a Codec.t -> Mpisim.Wire.writer -> 'a -> unit

(** Raises {!Codec.Decode_error} on bad magic, version, codec mismatch,
    malformed payload, or trailing bytes. *)
val decode : 'a Codec.t -> Bytes.t -> 'a

(** [decode] from a reader that holds exactly one archive, in place. *)
val decode_from : 'a Codec.t -> Mpisim.Wire.reader -> 'a
