(* Unit and property tests for the wire format. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

let test_primitive_roundtrip () =
  let w = Wire.create_writer () in
  Wire.put_int w 42;
  Wire.put_int w (-1);
  Wire.put_int w max_int;
  Wire.put_int w min_int;
  Wire.put_float w 3.14159;
  Wire.put_float w Float.neg_infinity;
  Wire.put_float w (-0.0);
  Wire.put_char w 'x';
  Wire.put_bool w true;
  Wire.put_bool w false;
  Wire.put_int32 w 0xDEADBEEFl;
  Wire.put_uint8 w 255;
  let r = Wire.reader_of_bytes (Wire.contents w) in
  Alcotest.(check int) "int" 42 (Wire.get_int r);
  Alcotest.(check int) "neg int" (-1) (Wire.get_int r);
  Alcotest.(check int) "max_int" max_int (Wire.get_int r);
  Alcotest.(check int) "min_int" min_int (Wire.get_int r);
  Alcotest.(check (float 0.)) "float" 3.14159 (Wire.get_float r);
  Alcotest.(check bool) "neg inf" true (Wire.get_float r = Float.neg_infinity);
  Alcotest.(check bool) "-0.0 bits" true
    (Int64.equal (Int64.bits_of_float (-0.0)) (Int64.bits_of_float (Wire.get_float r)));
  Alcotest.(check char) "char" 'x' (Wire.get_char r);
  Alcotest.(check bool) "true" true (Wire.get_bool r);
  Alcotest.(check bool) "false" false (Wire.get_bool r);
  Alcotest.(check int32) "int32" 0xDEADBEEFl (Wire.get_int32 r);
  Alcotest.(check int) "uint8" 255 (Wire.get_uint8 r);
  Alcotest.(check int) "drained" 0 (Wire.remaining r)

let test_underflow () =
  let w = Wire.create_writer () in
  Wire.put_int32 w 7l;
  let r = Wire.reader_of_bytes (Wire.contents w) in
  Alcotest.check_raises "underflow" (Wire.Underflow { wanted = 8; available = 4 })
    (fun () -> ignore (Wire.get_int64 r))

let test_decode_error () =
  (* A corrupt boolean byte is a decode error (the payload is framed
     correctly but holds a value outside the type's domain), distinct from
     Underflow (truncated frame) and from Invalid_argument (caller bug). *)
  let w = Wire.create_writer () in
  Wire.put_uint8 w 7;
  let r = Wire.reader_of_bytes (Wire.contents w) in
  Alcotest.check_raises "corrupt bool"
    (Wire.Decode_error { what = "bool must be 0 or 1"; got = 7 }) (fun () ->
      ignore (Wire.get_bool r))

let test_pool_reuse () =
  let pool = Wire.create_pool ~max_buffers:2 () in
  let w1 = Wire.acquire pool ~capacity:64 in
  Wire.put_int w1 42;
  let storage, len = Wire.unsafe_contents w1 in
  Alcotest.(check int) "written length" 8 len;
  Wire.recycle pool storage;
  let w2 = Wire.acquire pool ~capacity:32 in
  let storage2, len2 = Wire.unsafe_contents w2 in
  Alcotest.(check bool) "storage is reused" true (storage == storage2);
  Alcotest.(check int) "recycled writer starts empty" 0 len2;
  let hits, misses, _ = Wire.pool_stats pool in
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "one miss" 1 misses

let test_pool_bounds () =
  let pool = Wire.create_pool ~max_buffers:1 ~max_retain:128 () in
  (* A buffer over the retain limit is dropped, not cached. *)
  Wire.recycle pool (Bytes.create 4096);
  let _, _, free = Wire.pool_stats pool in
  Alcotest.(check int) "oversized buffer not retained" 0 free;
  (* The free list itself is bounded. *)
  Wire.recycle pool (Bytes.create 16);
  Wire.recycle pool (Bytes.create 16);
  let _, _, free = Wire.pool_stats pool in
  Alcotest.(check int) "free list capped" 1 free

(* A raising pool operation must leave the pool usable: a miss whose
   [Bytes.create] fails raises, and every later acquire, recycle and
   preheat on that pool must still work. *)
let test_pool_lock_released_on_raise () =
  let pool = Wire.create_pool () in
  Alcotest.check_raises "impossible capacity" (Invalid_argument "Bytes.create") (fun () ->
      ignore (Wire.acquire pool ~capacity:max_int));
  let w = Wire.acquire pool ~capacity:16 in
  Wire.put_int w 7;
  Wire.recycle pool (Wire.writer_storage w);
  Wire.preheat pool ~capacity:32;
  let w = Wire.acquire pool ~capacity:16 in
  Alcotest.(check bool) "preheated buffer served" true
    (Bytes.length (Wire.writer_storage w) >= 32)

let test_padding_and_skip () =
  let w = Wire.create_writer () in
  Wire.put_padding w 5;
  Wire.put_int w 9;
  let r = Wire.reader_of_bytes (Wire.contents w) in
  Wire.skip r 5;
  Alcotest.(check int) "after padding" 9 (Wire.get_int r)

let test_reserve_matches_put () =
  let w1 = Wire.create_writer () in
  Wire.put_int64 w1 0x0102030405060708L;
  let w2 = Wire.create_writer () in
  let pos = Wire.reserve_offset w2 8 in
  Bytes.set_int64_le (Wire.writer_storage w2) pos 0x0102030405060708L;
  Alcotest.(check bytes) "identical encodings" (Wire.contents w1) (Wire.contents w2)

let test_growth () =
  let w = Wire.create_writer ~capacity:1 () in
  for i = 0 to 999 do
    Wire.put_int w i
  done;
  Alcotest.(check int) "length" 8000 (Wire.length w);
  let r = Wire.reader_of_bytes (Wire.contents w) in
  for i = 0 to 999 do
    Alcotest.(check int) "value" i (Wire.get_int r)
  done

let test_reader_window () =
  let w = Wire.create_writer () in
  Wire.put_int w 1;
  Wire.put_int w 2;
  Wire.put_int w 3;
  let b = Wire.contents w in
  let r = Wire.reader_of_bytes ~pos:8 ~len:8 b in
  Alcotest.(check int) "windowed read" 2 (Wire.get_int r);
  Alcotest.(check int) "window exhausted" 0 (Wire.remaining r)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"wire int roundtrip" ~count:500 QCheck.int (fun x ->
      let w = Wire.create_writer () in
      Wire.put_int w x;
      Wire.get_int (Wire.reader_of_bytes (Wire.contents w)) = x)

let prop_float_roundtrip =
  QCheck.Test.make ~name:"wire float roundtrip (bitwise)" ~count:500 QCheck.float (fun x ->
      let w = Wire.create_writer () in
      Wire.put_float w x;
      let y = Wire.get_float (Wire.reader_of_bytes (Wire.contents w)) in
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"wire string roundtrip" ~count:200 QCheck.string (fun s ->
      let w = Wire.create_writer () in
      Wire.put_string w s;
      Wire.get_string (Wire.reader_of_bytes (Wire.contents w)) (String.length s) = s)

let prop_mixed_sequence =
  let gen = QCheck.(small_list (pair int bool)) in
  QCheck.Test.make ~name:"wire mixed sequence roundtrip" ~count:200 gen (fun xs ->
      let w = Wire.create_writer () in
      List.iter
        (fun (i, b) ->
          Wire.put_int w i;
          Wire.put_bool w b)
        xs;
      let r = Wire.reader_of_bytes (Wire.contents w) in
      List.for_all
        (fun (i, b) ->
          let i' = Wire.get_int r in
          let b' = Wire.get_bool r in
          i = i' && b = b')
        xs)

let tests =
  [
    Alcotest.test_case "primitive roundtrip" `Quick test_primitive_roundtrip;
    Alcotest.test_case "underflow detection" `Quick test_underflow;
    Alcotest.test_case "decode error on corrupt bool" `Quick test_decode_error;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
    Alcotest.test_case "pool bounds" `Quick test_pool_bounds;
    Alcotest.test_case "pool lock released on raise" `Quick test_pool_lock_released_on_raise;
    Alcotest.test_case "padding and skip" `Quick test_padding_and_skip;
    Alcotest.test_case "reserve = put" `Quick test_reserve_matches_put;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "reader window" `Quick test_reader_window;
    qtest prop_int_roundtrip;
    qtest prop_float_roundtrip;
    qtest prop_string_roundtrip;
    qtest prop_mixed_sequence;
  ]

let () = Alcotest.run "wire" [ ("wire", tests) ]
