(* Unit and property tests for the serialization library (paper §III-D3). *)

let qtest = QCheck_alcotest.to_alcotest

let roundtrip (c : 'a Serial.Codec.t) (v : 'a) : 'a =
  Serial.Codec.decode_from_bytes c (Serial.Codec.encode_to_bytes c v)

let prop_int = QCheck.Test.make ~name:"codec int" ~count:300 QCheck.int (fun v -> roundtrip Serial.Codec.int v = v)

let prop_string =
  QCheck.Test.make ~name:"codec string" ~count:300 QCheck.string (fun v ->
      roundtrip Serial.Codec.string v = v)

let prop_list =
  QCheck.Test.make ~name:"codec list" ~count:200
    QCheck.(small_list (pair int string))
    (fun v -> roundtrip Serial.Codec.(list (pair int string)) v = v)

let prop_array =
  QCheck.Test.make ~name:"codec array" ~count:200
    QCheck.(array_of_size Gen.small_nat (option int))
    (fun v -> roundtrip Serial.Codec.(array (option int)) v = v)

let prop_nested =
  QCheck.Test.make ~name:"codec nested" ~count:100
    QCheck.(small_list (small_list (pair string (list bool))))
    (fun v ->
      roundtrip Serial.Codec.(list (list (pair string (list bool)))) v = v)

let prop_result =
  QCheck.Test.make ~name:"codec result" ~count:200
    QCheck.(result int string)
    (fun v -> roundtrip Serial.Codec.(result int string) v = v)

let prop_varint =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(map abs int)
    (fun v -> roundtrip Serial.Codec.varint v = v)

let test_varint_compact () =
  let size v = Bytes.length (Serial.Codec.encode_to_bytes Serial.Codec.varint v) in
  Alcotest.(check int) "0 is 1 byte" 1 (size 0);
  Alcotest.(check int) "127 is 1 byte" 1 (size 127);
  Alcotest.(check int) "128 is 2 bytes" 2 (size 128);
  Alcotest.(check int) "16383 is 2 bytes" 2 (size 16383);
  Alcotest.(check int) "16384 is 3 bytes" 3 (size 16384)

let test_hashtbl_roundtrip () =
  let h = Hashtbl.create 8 in
  Hashtbl.replace h "alpha" 1;
  Hashtbl.replace h "beta" 2;
  Hashtbl.replace h "gamma" 3;
  let h' = roundtrip Serial.Codec.(hashtbl string int) h in
  Alcotest.(check int) "size" 3 (Hashtbl.length h');
  Alcotest.(check int) "alpha" 1 (Hashtbl.find h' "alpha");
  Alcotest.(check int) "gamma" 3 (Hashtbl.find h' "gamma")

let test_fix_recursive () =
  let tree_codec =
    Serial.Codec.fix ~name:"tree" (fun self ->
        Serial.Codec.map ~name:"tree_node"
          ~inject:(fun (v, children) -> `Node (v, children))
          ~project:(fun (`Node (v, children)) -> (v, children))
          (Serial.Codec.pair Serial.Codec.int (Serial.Codec.list self)))
  in
  let t = `Node (1, [ `Node (2, []); `Node (3, [ `Node (4, []) ]) ]) in
  Alcotest.(check bool) "tree roundtrip" true (roundtrip tree_codec t = t)

let test_map_iso () =
  let c =
    Serial.Codec.map ~name:"point"
      ~inject:(fun (x, y) -> (float_of_int x, float_of_int y))
      ~project:(fun (x, y) -> (int_of_float x, int_of_float y))
      (Serial.Codec.pair Serial.Codec.int Serial.Codec.int)
  in
  Alcotest.(check bool) "iso roundtrip" true (roundtrip c (3.0, 4.0) = (3.0, 4.0))

let test_trailing_bytes_rejected () =
  let b = Serial.Codec.encode_to_bytes Serial.Codec.(pair int int) (1, 2) in
  match Serial.Codec.decode_from_bytes Serial.Codec.int b with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Serial.Codec.Decode_error _ -> ()

(* Archive framing *)

let test_archive_roundtrip () =
  let c = Serial.Codec.(list string) in
  let v = [ "a"; "bb"; "ccc" ] in
  Alcotest.(check bool) "roundtrip" true
    (Serial.Archive.decode c (Serial.Archive.encode c v) = v)

let test_archive_wrong_codec_rejected () =
  let encoded = Serial.Archive.encode Serial.Codec.(list string) [ "x" ] in
  match Serial.Archive.decode Serial.Codec.(list int) encoded with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Serial.Codec.Decode_error _ -> ()

let test_archive_bad_magic_rejected () =
  let encoded = Serial.Archive.encode Serial.Codec.int 5 in
  Bytes.set encoded 0 '\xFF';
  match Serial.Archive.decode Serial.Codec.int encoded with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Serial.Codec.Decode_error _ -> ()

let prop_archive_roundtrip =
  QCheck.Test.make ~name:"archive roundtrip" ~count:200
    QCheck.(small_list (pair string (list int)))
    (fun v ->
      let c = Serial.Codec.(list (pair string (list int))) in
      Serial.Archive.decode c (Serial.Archive.encode c v) = v)

(* Hostile archives: a valid [list (pair string (array int))] archive
   under truncation, byte flips and runs of 0xff (which turn any varint
   they hit into a huge or overlong length).  Decoding must return a
   value or raise [Decode_error] — never [Out_of_memory],
   [Invalid_argument] or a leaked [Wire.Underflow] — and allocate no more
   than a small multiple of the input's size. *)
type mutation = Truncate of int | Flip of int * int | Ff_run of int * int

let apply_mutation b m =
  let n = Bytes.length b in
  if n = 0 then b
  else
    match m with
    | Truncate at -> Bytes.sub b 0 (at mod n)
    | Flip (at, mask) ->
        let b = Bytes.copy b in
        let i = at mod n in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 + (mask mod 255)));
        b
    | Ff_run (at, len) ->
        let b = Bytes.copy b in
        let i = at mod n in
        Bytes.fill b i (min len (n - i)) '\xff';
        b

let mutation_arb =
  let open QCheck.Gen in
  let gen =
    oneof
      [
        map (fun at -> Truncate at) nat;
        map2 (fun at mask -> Flip (at, mask)) nat nat;
        map2 (fun at len -> Ff_run (at, len)) nat (int_range 1 12);
      ]
  in
  QCheck.make gen ~print:(function
    | Truncate at -> Printf.sprintf "truncate@%d" at
    | Flip (at, mask) -> Printf.sprintf "flip@%d/%d" at mask
    | Ff_run (at, len) -> Printf.sprintf "ff@%d*%d" at len)

let hostile_codec = Serial.Codec.(list (pair string (array int)))

let prop_hostile_archive =
  QCheck.Test.make ~name:"hostile archives: Ok or Decode_error" ~count:2000
    QCheck.(
      pair
        (small_list (pair small_string (array_of_size Gen.(0 -- 8) int)))
        (list_of_size Gen.(1 -- 3) mutation_arb))
    (fun (v, mutations) ->
      let b =
        List.fold_left apply_mutation (Serial.Archive.encode hostile_codec v) mutations
      in
      (* Minor collections on both sides settle the counters, so the
         delta is this decode's allocation (direct major ones included). *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      (match Serial.Archive.decode hostile_codec b with
      | _ -> ()
      | exception Serial.Codec.Decode_error _ -> ());
      Gc.minor ();
      let words = (Gc.allocated_bytes () -. before) /. 8. in
      let bound = float_of_int ((16 * Bytes.length b) + 4096) in
      if words > bound then
        QCheck.Test.fail_reportf "%d-byte archive: %.0f words allocated (bound %.0f)"
          (Bytes.length b) words bound;
      true)

let tests =
  [
    qtest prop_hostile_archive;
    qtest prop_int;
    qtest prop_string;
    qtest prop_list;
    qtest prop_array;
    qtest prop_nested;
    qtest prop_result;
    qtest prop_varint;
    Alcotest.test_case "varint compactness" `Quick test_varint_compact;
    Alcotest.test_case "hashtbl roundtrip" `Quick test_hashtbl_roundtrip;
    Alcotest.test_case "recursive codec (fix)" `Quick test_fix_recursive;
    Alcotest.test_case "map isomorphism" `Quick test_map_iso;
    Alcotest.test_case "trailing bytes rejected" `Quick test_trailing_bytes_rejected;
    Alcotest.test_case "archive roundtrip" `Quick test_archive_roundtrip;
    Alcotest.test_case "archive codec mismatch" `Quick test_archive_wrong_codec_rejected;
    Alcotest.test_case "archive bad magic" `Quick test_archive_bad_magic_rejected;
    qtest prop_archive_roundtrip;
  ]


(* --- versioned codecs --- *)

type person_v2 = { name2 : string; age : int }

let person_v1 : person_v2 Serial.Codec.t =
  (* v1 had only a name; migrate by defaulting the age. *)
  Serial.Codec.map ~name:"person_v1"
    ~inject:(fun name2 -> { name2; age = -1 })
    ~project:(fun p -> p.name2)
    Serial.Codec.string

let person_v2 : person_v2 Serial.Codec.t =
  Serial.Codec.map ~name:"person_v2"
    ~inject:(fun (name2, age) -> { name2; age })
    ~project:(fun p -> (p.name2, p.age))
    (Serial.Codec.pair Serial.Codec.string Serial.Codec.int)

let person = Serial.Codec.versioned ~version:2 ~decoders:[ (1, person_v1) ] person_v2

let test_versioned_current () =
  let p = { name2 = "ada"; age = 36 } in
  Alcotest.(check bool) "current roundtrip" true (roundtrip person p = p)

let test_versioned_migrates_old () =
  (* Encode with an old (v1) writer: version byte 1 + v1 payload. *)
  let w = Mpisim.Wire.create_writer () in
  Mpisim.Wire.put_uint8 w 1;
  person_v1.Serial.Codec.encode w { name2 = "grace"; age = 0 };
  let decoded = Serial.Codec.decode_from_bytes person (Mpisim.Wire.contents w) in
  Alcotest.(check string) "name survives" "grace" decoded.name2;
  Alcotest.(check int) "age defaulted" (-1) decoded.age

let test_versioned_unknown_rejected () =
  let w = Mpisim.Wire.create_writer () in
  Mpisim.Wire.put_uint8 w 7;
  match Serial.Codec.decode_from_bytes person (Mpisim.Wire.contents w) with
  | _ -> Alcotest.fail "expected Decode_error"
  | exception Serial.Codec.Decode_error _ -> ()

let versioned_tests =
  [
    Alcotest.test_case "versioned current" `Quick test_versioned_current;
    Alcotest.test_case "versioned migrates v1" `Quick test_versioned_migrates_old;
    Alcotest.test_case "versioned unknown rejected" `Quick test_versioned_unknown_rejected;
  ]

let () = Alcotest.run "serial" [ ("serial", tests @ versioned_tests) ]
