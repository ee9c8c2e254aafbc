(* Serialization codecs (the Cereal analogue, paper §III-D3).

   A ['a t] describes how to turn values of type ['a] — including
   heap-structured ones like strings, lists and hash tables that no
   fixed-size datatype can express — into bytes and back.  Codecs compose:
   [list], [array], [hashtbl], [pair], ... build bigger codecs from smaller
   ones, and [map] adapts a codec across an isomorphism (the way Cereal
   lets user types describe their members).

   Serialization is explicit and opt-in at the binding layer
   ([Kamping.Serialized...]); the codec layer itself is independent of
   communication. *)

type 'a t = {
  name : string;
  encode : Mpisim.Wire.writer -> 'a -> unit;
  decode : Mpisim.Wire.reader -> 'a;
}

exception Decode_error of string

let decode_error fmt = Printf.ksprintf (fun msg -> raise (Decode_error msg)) fmt

let make ~name ~encode ~decode = { name; encode; decode }

let name c = c.name

(* ------------------------------------------------------------------ *)
(* Primitives *)

let unit : unit t =
  make ~name:"unit" ~encode:(fun _ () -> ()) ~decode:(fun _ -> ())

let bool : bool t =
  make ~name:"bool" ~encode:Mpisim.Wire.put_bool ~decode:Mpisim.Wire.get_bool

let char : char t =
  make ~name:"char" ~encode:Mpisim.Wire.put_char ~decode:Mpisim.Wire.get_char

let int : int t = make ~name:"int" ~encode:Mpisim.Wire.put_int ~decode:Mpisim.Wire.get_int

let int32 : int32 t =
  make ~name:"int32" ~encode:Mpisim.Wire.put_int32 ~decode:Mpisim.Wire.get_int32

let int64 : int64 t =
  make ~name:"int64" ~encode:Mpisim.Wire.put_int64 ~decode:Mpisim.Wire.get_int64

let float : float t =
  make ~name:"float" ~encode:Mpisim.Wire.put_float ~decode:Mpisim.Wire.get_float

(* Variable-length non-negative integer (LEB128); keeps length prefixes
   small for the common case. *)
let varint : int t =
  let encode w v =
    if v < 0 then invalid_arg "Codec.varint: negative";
    let rec go v =
      if v < 0x80 then Mpisim.Wire.put_uint8 w v
      else begin
        Mpisim.Wire.put_uint8 w (0x80 lor (v land 0x7F));
        go (v lsr 7)
      end
    in
    go v
  in
  let decode r =
    let rec go shift acc =
      if shift > 62 then decode_error "varint too long";
      let b = Mpisim.Wire.get_uint8 r in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    (* Nine groups reach the sign bit: no encoder writes that. *)
    let v = go 0 0 in
    if v < 0 then decode_error "varint out of range";
    v
  in
  make ~name:"varint" ~encode ~decode

let string : string t =
  make ~name:"string"
    ~encode:(fun w s ->
      varint.encode w (String.length s);
      Mpisim.Wire.put_string w s)
    ~decode:(fun r ->
      (* [get_string] checks the length against the bytes left before it
         allocates. *)
      let len = varint.decode r in
      Mpisim.Wire.get_string r len)

let bytes : Bytes.t t =
  make ~name:"bytes"
    ~encode:(fun w b ->
      varint.encode w (Bytes.length b);
      Mpisim.Wire.put_bytes w b ~pos:0 ~len:(Bytes.length b))
    ~decode:(fun r ->
      let len = varint.decode r in
      Mpisim.Wire.get_bytes r len)

(* ------------------------------------------------------------------ *)
(* Combinators *)

let pair (a : 'a t) (b : 'b t) : ('a * 'b) t =
  make
    ~name:(Printf.sprintf "pair(%s,%s)" a.name b.name)
    ~encode:(fun w (x, y) ->
      a.encode w x;
      b.encode w y)
    ~decode:(fun r ->
      let x = a.decode r in
      let y = b.decode r in
      (x, y))

let triple (a : 'a t) (b : 'b t) (c : 'c t) : ('a * 'b * 'c) t =
  make
    ~name:(Printf.sprintf "triple(%s,%s,%s)" a.name b.name c.name)
    ~encode:(fun w (x, y, z) ->
      a.encode w x;
      b.encode w y;
      c.encode w z)
    ~decode:(fun r ->
      let x = a.decode r in
      let y = b.decode r in
      let z = c.decode r in
      (x, y, z))

let option (a : 'a t) : 'a option t =
  make
    ~name:(Printf.sprintf "option(%s)" a.name)
    ~encode:(fun w v ->
      match v with
      | None -> Mpisim.Wire.put_bool w false
      | Some x ->
          Mpisim.Wire.put_bool w true;
          a.encode w x)
    ~decode:(fun r -> if Mpisim.Wire.get_bool r then Some (a.decode r) else None)

let result (ok : 'a t) (err : 'e t) : ('a, 'e) Result.t t =
  make
    ~name:(Printf.sprintf "result(%s,%s)" ok.name err.name)
    ~encode:(fun w v ->
      match v with
      | Ok x ->
          Mpisim.Wire.put_bool w true;
          ok.encode w x
      | Error e ->
          Mpisim.Wire.put_bool w false;
          err.encode w e)
    ~decode:(fun r ->
      if Mpisim.Wire.get_bool r then Ok (ok.decode r) else Error (err.decode r))

let list (a : 'a t) : 'a list t =
  make
    ~name:(Printf.sprintf "list(%s)" a.name)
    ~encode:(fun w xs ->
      varint.encode w (List.length xs);
      List.iter (a.encode w) xs)
    ~decode:(fun r ->
      (* [List.init] allocates as it decodes, so a count the bytes cannot
         back ends in [Wire.Underflow] after at most as many elements as
         bytes are left. *)
      let len = varint.decode r in
      List.init len (fun _ -> a.decode r))

let array (a : 'a t) : 'a array t =
  make
    ~name:(Printf.sprintf "array(%s)" a.name)
    ~encode:(fun w xs ->
      varint.encode w (Array.length xs);
      Array.iter (a.encode w) xs)
    ~decode:(fun r ->
      let len = varint.decode r in
      (* Sizing the array up front is safe only for a count the bytes
         left could back at one byte per element; any larger count is
         either a run of zero-byte elements or hostile, and decodes
         element by element until the bytes run out. *)
      if len <= Mpisim.Wire.remaining r then Array.init len (fun _ -> a.decode r)
      else Array.of_list (List.init len (fun _ -> a.decode r)))

(* Hash tables serialize as (key, value) pairs.  Decoding rebuilds the
   table; iteration order is not preserved (as with any hash container). *)
let hashtbl (k : 'k t) (v : 'v t) : ('k, 'v) Hashtbl.t t =
  make
    ~name:(Printf.sprintf "hashtbl(%s,%s)" k.name v.name)
    ~encode:(fun w h ->
      varint.encode w (Hashtbl.length h);
      Hashtbl.iter
        (fun key value ->
          k.encode w key;
          v.encode w value)
        h)
    ~decode:(fun r ->
      let len = varint.decode r in
      let h = Hashtbl.create (Int.max 16 (Int.min len (Mpisim.Wire.remaining r))) in
      for _ = 1 to len do
        let key = k.decode r in
        let value = v.decode r in
        Hashtbl.replace h key value
      done;
      h)

(* Adapt a codec across an isomorphism — how custom record types get
   serialization support. *)
let map ~name ~(inject : 'a -> 'b) ~(project : 'b -> 'a) (a : 'a t) : 'b t =
  make ~name
    ~encode:(fun w v -> a.encode w (project v))
    ~decode:(fun r -> inject (a.decode r))

(* A lazily tied recursive codec, for recursive data types. *)
let fix ~name (f : 'a t -> 'a t) : 'a t =
  let rec self =
    {
      name;
      encode = (fun w v -> (Lazy.force unrolled).encode w v);
      decode = (fun r -> (Lazy.force unrolled).decode r);
    }
  and unrolled = lazy (f self) in
  self

(* ------------------------------------------------------------------ *)
(* Whole-value entry points *)

let encode_to_bytes (c : 'a t) (v : 'a) : Bytes.t =
  let w = Mpisim.Wire.create_writer () in
  c.encode w v;
  Mpisim.Wire.contents w

(* [c.decode r], with the wire layer's own failures (running out of
   bytes, a bool that is neither 0 nor 1) reported as [Decode_error]. *)
let decode_wire (c : 'a t) (r : Mpisim.Wire.reader) : 'a =
  match c.decode r with
  | v -> v
  | exception Mpisim.Wire.Underflow { wanted; available } ->
      decode_error "%s: wanted %d bytes, %d left" c.name wanted available
  | exception Mpisim.Wire.Decode_error { what; got } ->
      decode_error "%s: %s (byte %d)" c.name what got

let decode_from_bytes (c : 'a t) (b : Bytes.t) : 'a =
  let r = Mpisim.Wire.reader_of_bytes b in
  let v = decode_wire c r in
  if Mpisim.Wire.remaining r <> 0 then
    decode_error "%s: %d trailing bytes" c.name (Mpisim.Wire.remaining r);
  v

(* Versioned codecs: schema evolution (Cereal's class versioning).  The
   encoded form carries a version byte; decoding applies [migrate] to
   lift any older-version payload to the current representation. *)
let versioned ~(version : int) ~(decoders : (int * 'a t) list) (current : 'a t) : 'a t =
  if version < 0 || version > 255 then invalid_arg "Codec.versioned: version out of range";
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= version then
        invalid_arg "Codec.versioned: legacy decoder version must be below current")
    decoders;
  make
    ~name:(Printf.sprintf "%s@v%d" current.name version)
    ~encode:(fun w v ->
      Mpisim.Wire.put_uint8 w version;
      current.encode w v)
    ~decode:(fun r ->
      let v = Mpisim.Wire.get_uint8 r in
      if v = version then current.decode r
      else
        match List.assoc_opt v decoders with
        | Some legacy -> legacy.decode r
        | None -> decode_error "%s: unsupported version %d" current.name v)
