(** Explicit serialization for communication (paper §III-D3, Fig. 5/11).

    Heap-structured values (strings, maps, lists) have no fixed-size
    datatype.  [datatype codec] is the analogue of KaMPIng's
    [as_serialized]/[as_deserializable]: a datatype whose element is one
    framed archive of a value ({!Serial.Archive}: a header checked on
    decode, then the codec's payload), so every typed call — point to
    point, collectives, {!Named}, nonblocking and plugin calls — carries
    serialized values, costed, traced and checked like any message.
    Usage is explicit — never implicit as in Boost.MPI — because
    serialization has real allocation and CPU costs that zero-overhead
    bindings must not hide. *)

open Mpisim

(** A {!Datatype.framed} type of [codec]'s archives: a value encodes
    straight into the send writer and decodes in place from its received
    frame (a mismatched codec raises {!Serial.Codec.Decode_error}).  Its
    placeholder, seen only where a receive leaves a gap, is the codec's
    decode of zero bytes, made afresh for each result that needs one, so
    a value written in one call's gap (a table, say) never shows in
    another's; a codec that cannot decode zeros raises
    [Errdefs.Usage_error] here.  Build it once per codec. *)
val datatype : 'a Serial.Codec.t -> 'a Datatype.t
