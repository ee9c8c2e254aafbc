(** Framed archives: a self-describing envelope around codec payloads.

    The header carries a magic number, a format version, and a hash of the
    codec name, so decoding with the wrong codec fails loudly instead of
    silently producing garbage. *)

val encode : 'a Codec.t -> 'a -> Bytes.t

(** Raises {!Codec.Decode_error} on bad magic, version, codec mismatch,
    malformed payload, or trailing bytes. *)
val decode : 'a Codec.t -> Bytes.t -> 'a
