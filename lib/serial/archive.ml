(* Framed archives: a self-describing envelope around codec payloads.

   Cereal distinguishes archive formats from serialization functions; we
   provide a binary archive with a header carrying a magic number, a
   version, and a hash of the codec name, so that decoding with the wrong
   codec fails loudly instead of silently producing garbage. *)

let magic = 0x4B414D50 (* "KAMP" *)

let version = 1

(* Size of the framing header in bytes. *)
let header_bytes = 4 + 1 + 4

let name_hash (s : string) : int32 =
  (* FNV-1a, truncated. *)
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    s;
  Int32.of_int (!h land 0x7FFFFFFF)

let encode (c : 'a Codec.t) (v : 'a) : Bytes.t =
  let w = Mpisim.Wire.create_writer () in
  Mpisim.Wire.put_int32 w (Int32.of_int magic);
  Mpisim.Wire.put_uint8 w version;
  Mpisim.Wire.put_int32 w (name_hash (Codec.name c));
  c.Codec.encode w v;
  Mpisim.Wire.contents w

let decode (c : 'a Codec.t) (b : Bytes.t) : 'a =
  if Bytes.length b < header_bytes then
    Codec.decode_error "archive: %d bytes, shorter than the %d-byte header" (Bytes.length b)
      header_bytes;
  let r = Mpisim.Wire.reader_of_bytes b in
  let m = Int32.to_int (Mpisim.Wire.get_int32 r) in
  if m <> magic then Codec.decode_error "archive: bad magic %x" m;
  let ver = Mpisim.Wire.get_uint8 r in
  if ver <> version then Codec.decode_error "archive: unsupported version %d" ver;
  let h = Mpisim.Wire.get_int32 r in
  if h <> name_hash (Codec.name c) then
    Codec.decode_error "archive: payload was encoded with a different codec than %s"
      (Codec.name c);
  let v = Codec.decode_wire c r in
  if Mpisim.Wire.remaining r <> 0 then
    Codec.decode_error "archive: %d trailing bytes" (Mpisim.Wire.remaining r);
  v
