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

(* Hostile [Datatype.bytes] frames: a negative length, or one past the
   payload, is [Wire.Underflow] before anything proportional to the
   claimed length is allocated. *)
let test_bytes_hostile_frames () =
  List.iter
    (fun (name, len, payload) ->
      let w = Wire.create_writer () in
      Wire.put_int w len;
      Wire.put_padding w payload;
      let r = Wire.reader_of_bytes (Wire.contents w) in
      let available, words =
        Alloc.measure (fun () ->
            match Datatype.unpack_array Datatype.bytes r ~count:1 with
            | _ -> Alcotest.failf "%s: decoded" name
            | exception Wire.Underflow { available; _ } -> available)
      in
      Alcotest.(check int) (name ^ ": available") payload available;
      let allocated = Alloc.bytes words in
      if allocated > 1024. then Alcotest.failf "%s: allocated %.0f bytes" name allocated)
    [
      ("length -1", -1, 16);
      ("length min_int", min_int, 16);
      ("length one past the payload", 17, 16);
      ("length 2^40, empty payload", 1 lsl 40, 0);
      ("length max_int", max_int, 16);
    ]

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
  let w = Wire.acquire pool ~capacity:32 in
  Alcotest.(check bool) "preheated buffer served" true
    (Bytes.length (Wire.writer_storage w) >= 32)

let pooled_lengths pool =
  let rec drain acc =
    let _, _, free = Wire.pool_stats pool in
    if free = 0 then List.sort compare acc
    else drain (Bytes.length (Wire.writer_storage (Wire.acquire pool ~capacity:1)) :: acc)
  in
  drain []

(* An acquire takes the smallest pooled buffer that fits, and misses
   (leaving the pool as it was) when none does; a full pool keeps its
   larger buffers. *)
let test_pool_best_fit () =
  let pool = Wire.create_pool ~max_buffers:3 () in
  let recycle n = Wire.recycle pool (Bytes.create n) in
  let acquire capacity = Bytes.length (Wire.writer_storage (Wire.acquire pool ~capacity)) in
  List.iter recycle [ 64; 1024; 16 ];
  Alcotest.(check int) "smallest that fits" 64 (acquire 40);
  recycle 64;
  Alcotest.(check int) "an exact fit" 1024 (acquire 1024);
  recycle 1024;
  Alcotest.(check int) "a new buffer when none fits" 4096 (acquire 4096);
  Alcotest.(check (list int)) "a miss takes nothing" [ 16; 64; 1024 ] (pooled_lengths pool);
  List.iter recycle [ 64; 1024; 16 ];
  recycle 8;
  recycle 256;
  Alcotest.(check (list int)) "a full pool keeps the larger buffers" [ 64; 256; 1024 ]
    (pooled_lengths pool);
  let hits, misses, _ = Wire.pool_stats pool in
  Alcotest.(check (pair int int)) "hits and misses" (8, 1) (hits, misses)

(* Over random acquire/recycle/preheat sequences, every pooled slot's
   recorded capacity is its buffer's length, and an acquire takes the
   buffer a reference scan over [Bytes.length] picks: the first smallest
   one that holds the capacity, or a new one when none does. *)
type pool_op = Acquire of int | Recycle of int | Preheat of int

let prop_pool_best_fit =
  let op =
    QCheck.Gen.(
      map2
        (fun k n -> match k with 0 -> Acquire n | 1 -> Recycle n | _ -> Preheat n)
        (int_bound 2) (int_range 0 300))
  in
  QCheck.Test.make ~name:"pool best fit: recorded capacities, reference pick" ~count:500
    QCheck.(pair (int_range 0 4) (make Gen.(list_size (int_bound 40) op)))
    (fun (max_buffers, ops) ->
      let pool = Wire.create_pool ~max_buffers ~max_retain:256 () in
      let consistent () =
        List.for_all (fun (cap, b) -> cap = Bytes.length b) (Wire.pooled pool)
      in
      let reference capacity =
        List.fold_left
          (fun best (_, b) ->
            let len = Bytes.length b in
            match best with
            | Some c when Bytes.length c <= len -> best
            | _ when len >= capacity -> Some b
            | _ -> best)
          None (Wire.pooled pool)
      in
      List.for_all
        (fun op ->
          (match op with
          | Acquire n ->
              let expected = reference (Int.max 1 n) in
              let got = Wire.writer_storage (Wire.acquire pool ~capacity:n) in
              (match expected with
              | Some b -> got == b
              | None -> Bytes.length got = Int.max 1 n)
              || QCheck.Test.fail_reportf "acquire %d took a %d-byte buffer" n
                   (Bytes.length got)
          | Recycle n ->
              Wire.recycle pool (Bytes.create n);
              true
          | Preheat n ->
              Wire.preheat pool ~capacity:n;
              true)
          && consistent ())
        ops)

(* After [preheat ~capacity], the next acquire asking for at most
   [capacity] bytes is a hit that fits, whatever the pool held; a full
   pool gives up its smallest buffer for it. *)
let prop_preheat_fits =
  QCheck.Test.make ~name:"preheat: the next acquire fits" ~count:500
    QCheck.(
      triple (int_range 0 4) (list_of_size Gen.(int_bound 6) (int_range 1 300)) (int_range 1 300))
    (fun (max_buffers, pooled, capacity) ->
      let pool = Wire.create_pool ~max_buffers () in
      List.iter (fun n -> Wire.recycle pool (Bytes.create n)) pooled;
      Wire.preheat pool ~capacity;
      let asked = 1 + (capacity / 2) in
      let hits, misses, _ = Wire.pool_stats pool in
      let w = Wire.acquire pool ~capacity:asked in
      let hits', misses', _ = Wire.pool_stats pool in
      Bytes.length (Wire.writer_storage w) >= asked && hits' = hits + 1 && misses' = misses)

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
    Alcotest.test_case "hostile bytes frames" `Quick test_bytes_hostile_frames;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
    Alcotest.test_case "pool bounds" `Quick test_pool_bounds;
    Alcotest.test_case "pool lock released on raise" `Quick test_pool_lock_released_on_raise;
    Alcotest.test_case "pool best fit" `Quick test_pool_best_fit;
    Alcotest.test_case "padding and skip" `Quick test_padding_and_skip;
    Alcotest.test_case "reserve = put" `Quick test_reserve_matches_put;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "reader window" `Quick test_reader_window;
    qtest prop_int_roundtrip;
    qtest prop_float_roundtrip;
    qtest prop_string_roundtrip;
    qtest prop_mixed_sequence;
    qtest prop_preheat_fits;
    qtest prop_pool_best_fit;
  ]

let () = Alcotest.run "wire" [ ("wire", tests) ]
