(* §III-D4: sensible defaults for type construction.

   A struct with alignment gaps can be communicated three ways:

   - as a gap-skipping struct datatype (MPI_Type_create_struct): fewer
     wire bytes, but field-by-field packing (non-contiguous access);
   - as a trivially-copyable contiguous byte block, gaps included — the
     binding layer's default: one bulk copy per element;
   - serialized — flexible but with real allocation and encode costs,
     which is why serialization is strictly opt-in.

   We measure real pack+unpack CPU time per element (Bechamel) and the
   modelled transfer time of the resulting wire sizes. *)

open Mpisim

(* struct MyType { int64 a; char c; /* 7 bytes pad */ double b; } *)
type my_type = { a : int; c : char; b : float }

(* One field list, two layouts: gaps skipped (17 wire bytes) or shipped
   as zeros (24). *)
let my_type_fields : (my_type, int -> char -> float -> my_type) Datatype.fields =
  Datatype.
    [
      field "a" int (fun t -> t.a);
      field ~pad_after:7 "c" char (fun t -> t.c);
      field "b" float (fun t -> t.b);
    ]

let make_my_type a c b = { a; c; b }

let gapped_dt = Datatype.record "my_type_struct" my_type_fields make_my_type

let blob_dt : my_type Datatype.t =
  Datatype.blob ~name:"my_type_blob" ~size:24
    ~write:(fun buf pos t ->
      Bytes.set_int64_le buf pos (Int64.of_int t.a);
      Bytes.set buf (pos + 8) t.c;
      Bytes.fill buf (pos + 9) 7 '\000';
      Bytes.set_int64_le buf (pos + 16) (Int64.bits_of_float t.b))
    ~read:(fun buf pos ->
      {
        a = Int64.to_int (Bytes.get_int64_le buf pos);
        c = Bytes.get buf (pos + 8);
        b = Int64.float_of_bits (Bytes.get_int64_le buf (pos + 16));
      })

let gapped_with_pad_dt =
  Datatype.record_with_gaps "my_type_gaps" my_type_fields make_my_type

let codec : my_type Serial.Codec.t =
  Serial.Codec.map ~name:"my_type"
    ~inject:(fun (a, c, b) -> { a; c; b })
    ~project:(fun t -> (t.a, t.c, t.b))
    (Serial.Codec.triple Serial.Codec.int Serial.Codec.char Serial.Codec.float)

let n = 1000

let sample =
  Array.init n (fun i ->
      { a = i * 17; c = Char.chr (i mod 256); b = float_of_int i *. 1.5 })

let pack_unpack (dt : my_type Datatype.t) () =
  let w = Wire.create_writer ~capacity:(Datatype.size_of_count dt n) () in
  Datatype.pack_array dt w sample ~pos:0 ~count:n;
  let r = Wire.reader_of_bytes (Wire.contents w) in
  ignore (Datatype.unpack_array dt r ~count:n)

let serialize_roundtrip () =
  let b = Serial.Codec.encode_to_bytes (Serial.Codec.array codec) sample in
  ignore (Serial.Codec.decode_from_bytes (Serial.Codec.array codec) b)

let wire_bytes (dt : my_type Datatype.t) = Datatype.size_of_count dt n

let results_file = "BENCH_TYPES.json"

(* One BENCH_TYPES.json row per representation: [wire_bytes] is the
   layout, gated exactly against bench/history; [pack_unpack_wall_ns]
   measures the host, so bench-diff skips it. *)
let run ?(smoke = false) () =
  Bench_util.section
    "Type construction defaults (paper SIII-D4): struct-with-gaps vs contiguous bytes vs serialization";
  let serial_bytes =
    Bytes.length (Serial.Codec.encode_to_bytes (Serial.Codec.array codec) sample)
  in
  let representations =
    [
      ("struct (gap-skipping)", pack_unpack gapped_dt, wire_bytes gapped_dt);
      ("contiguous bytes (default)", pack_unpack blob_dt, wire_bytes blob_dt);
      ( "struct (gaps on wire)",
        pack_unpack gapped_with_pad_dt,
        wire_bytes gapped_with_pad_dt );
      ("serialization", serialize_roundtrip, serial_bytes);
    ]
  in
  let estimates =
    Bench_util.bechamel_estimates
      ~quota:(if smoke then 0.25 else 1.5)
      ~name:"types"
      (List.map (fun (name, f, _) -> (name, f)) representations)
  in
  List.iter
    (fun (name, _, b) ->
      let wall =
        match List.assoc_opt name estimates with
        | Some ns -> [ ("pack_unpack_wall_ns", Bench_util.F ns) ]
        | None -> []
      in
      Bench_util.emit_json_file ~file:results_file ~bench:"types"
        (("representation", Bench_util.S name) :: ("wire_bytes", Bench_util.I b) :: wall))
    representations;
  let model = Net_model.omnipath in
  Bench_util.print_table
    ~header:
      [ "representation"; "pack+unpack (1000 elems)"; "wire bytes"; "modelled transfer" ]
    (List.map
       (fun (name, _, b) ->
         [
           name;
           (match List.assoc_opt name estimates with
           | Some ns -> Bench_util.ns_string ns
           | None -> "n/a");
           string_of_int b;
           Bench_util.time_str (float_of_int b *. model.Net_model.byte_time);
         ])
       representations);
  Printf.printf
    "\nExpected: the contiguous-bytes default packs fastest at a small wire-size\n\
     cost; serialization is markedly more expensive — hence opt-in only.\n"
