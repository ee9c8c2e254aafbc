(* Explicit serialization for communication (paper §III-D3, Fig. 5/11).

   Heap-structured values (strings, maps, lists, ...) cannot be described
   by fixed-size datatypes.  [datatype codec] is the analogue of KaMPIng's
   [as_serialized]/[as_deserializable] buffer adapters: a datatype whose
   element is one framed archive (header plus codec payload), encoded
   straight into the send buffer and decoded in place from the received
   frame, so every typed call carries serialized values.  Usage is
   explicit — never implicit as in Boost.MPI — because serialization has
   real allocation and CPU costs that zero-overhead bindings must not
   hide. *)

open Mpisim

(* The zero bytes the codec decodes, as many as it reads. *)
let rec zeros_for (codec : 'a Serial.Codec.t) ~size =
  let zeros = Bytes.make size '\000' in
  match codec.Serial.Codec.decode (Wire.reader_of_bytes zeros) with
  | _ -> zeros
  | exception Wire.Underflow _ when size < 1 lsl 20 -> zeros_for codec ~size:(2 * size)
  | exception e ->
      Errdefs.usage_error "Serialized.datatype: codec %s cannot decode zeros (%s)"
        (Serial.Codec.name codec) (Printexc.to_string e)

(* A placeholder is decoded afresh on each use: a decoded value (a
   table) may be one the caller writes to. *)
let datatype (codec : 'a Serial.Codec.t) : 'a Datatype.t =
  let zeros = zeros_for codec ~size:64 in
  Datatype.framed
    ~name:(Printf.sprintf "serialized(%s)" (Serial.Codec.name codec))
    ~encode:(Serial.Archive.encode_into codec)
    ~decode:(Serial.Archive.decode_from codec)
    ~zero:(fun () -> codec.Serial.Codec.decode (Wire.reader_of_bytes zeros))
