(* Unit and property tests for the datatype system (paper §III-D). *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

let roundtrip (dt : 'a Datatype.t) (v : 'a) : 'a =
  let w = Wire.create_writer () in
  dt.Datatype.pack w v;
  dt.Datatype.unpack (Wire.reader_of_bytes (Wire.contents w))

let test_builtin_sizes () =
  Alcotest.(check int) "int" 8 (Datatype.elem_size Datatype.int);
  Alcotest.(check int) "int32" 4 (Datatype.elem_size Datatype.int32);
  Alcotest.(check int) "float" 8 (Datatype.elem_size Datatype.float);
  Alcotest.(check int) "float32" 4 (Datatype.elem_size Datatype.float32);
  Alcotest.(check int) "char" 1 (Datatype.elem_size Datatype.char);
  Alcotest.(check int) "bool" 1 (Datatype.elem_size Datatype.bool)

let test_builtins_committed () =
  List.iter
    (fun b -> Alcotest.(check bool) "committed" true b)
    [
      Datatype.is_committed Datatype.int;
      Datatype.is_committed Datatype.float;
      Datatype.is_committed Datatype.char;
      Datatype.is_committed Datatype.bool;
      Datatype.is_committed Datatype.byte;
    ]

let test_derived_commit_lifecycle () =
  let dt = Datatype.pair Datatype.int Datatype.float in
  Alcotest.(check bool) "fresh derived not committed" false (Datatype.is_committed dt);
  Datatype.commit dt;
  Alcotest.(check bool) "committed" true (Datatype.is_committed dt);
  Datatype.free dt;
  Alcotest.(check bool) "freed" false (Datatype.is_committed dt);
  Alcotest.check_raises "double free"
    (Invalid_argument "Datatype.free: double free: pair(int,float)") (fun () ->
      Datatype.free dt)

let test_cannot_free_builtin () =
  Alcotest.check_raises "free builtin"
    (Invalid_argument "Datatype.free: cannot free builtin") (fun () ->
      Datatype.free Datatype.int)

let test_with_committed_scopes () =
  let dt = Datatype.pair Datatype.int Datatype.int in
  let before = Datatype.live_derived_count () in
  Datatype.with_committed dt (fun dt' ->
      Alcotest.(check bool) "committed inside" true (Datatype.is_committed dt'));
  Alcotest.(check bool) "freed outside" false (Datatype.is_committed dt);
  Alcotest.(check int) "no leak" before (Datatype.live_derived_count ())

let test_uncommitted_send_rejected () =
  let dt = Datatype.pair Datatype.int Datatype.int in
  let failure = ref "" in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm dt ~dest:1 [| (1, 2) |]
            else ignore (P2p.recv comm dt ~source:0 ())))
   with Scheduler.Aborted { exn = Errdefs.Usage_error msg; _ } -> failure := msg);
  Alcotest.(check bool) "mentions commit" true
    (String.length !failure > 0
    && String.length !failure > 10
    &&
    let has_sub s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    has_sub !failure "not committed")

let test_signature_mismatch_detected () =
  (* Send ints, receive as floats: same byte size, different signature. *)
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int ~dest:1 [| 1; 2; 3 |]
            else ignore (P2p.recv comm Datatype.float ~source:0 ())))
   with Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_type; _ }; _ } ->
     caught := true);
  Alcotest.(check bool) "type mismatch raises ERR_TYPE" true !caught

let test_blob_matches_any_blob () =
  (* byte <-> blob of equal total size must match (MPI_BYTE semantics). *)
  let sig_a = Signature.of_base ~count:24 Signature.Blob in
  let sig_b =
    Signature.concat
      [ Signature.of_base ~count:16 Signature.Blob; Signature.of_base ~count:8 Signature.Blob ]
  in
  Alcotest.(check bool) "normalized equal" true (Signature.matches sig_a sig_b)

let test_signature_zero_count () =
  (* A zero-count run is not a run at all: it must normalize to the empty
     signature, not a [(base, 0)] entry that would break [matches]. *)
  Alcotest.(check bool) "of_base ~count:0 is empty" true
    (Signature.of_base ~count:0 Signature.Int64 = Signature.empty);
  Alcotest.(check bool) "empty is left identity" true
    (Signature.append Signature.empty (Signature.of_base Signature.Char)
    = Signature.of_base Signature.Char);
  Alcotest.(check bool) "empty is right identity" true
    (Signature.append (Signature.of_base Signature.Char) Signature.empty
    = Signature.of_base Signature.Char);
  Alcotest.(check int) "empty has no bytes" 0 (Signature.size_in_bytes Signature.empty)

let test_signature_normalization () =
  let open Signature in
  (* Adjacent equal bases merge across every constructor. *)
  Alcotest.(check bool) "append merges runs" true
    (append (of_base ~count:2 Int64) (of_base ~count:3 Int64) = of_base ~count:5 Int64);
  Alcotest.(check bool) "concat merges runs" true
    (concat [ of_base Float64; of_base Float64; of_base ~count:2 Float64 ]
    = of_base ~count:4 Float64);
  Alcotest.(check bool) "repeat of a single run scales the count" true
    (repeat (of_base ~count:2 Char) 3 = of_base ~count:6 Char);
  Alcotest.(check bool) "repeat zero times is empty" true
    (repeat (of_base ~count:2 Char) 0 = empty);
  (* A multi-run repeat must keep the alternation (no bogus merge across
     the repetition boundary when the bases differ). *)
  let unit_sig = append (of_base Int64) (of_base Char) in
  Alcotest.(check bool) "multi-run repeat alternates" true
    (repeat unit_sig 2 = concat [ of_base Int64; of_base Char; of_base Int64; of_base Char ]);
  Alcotest.(check int) "repeat byte size" (2 * size_in_bytes unit_sig)
    (size_in_bytes (repeat unit_sig 2))

let test_blob_segmentation_independent () =
  let open Signature in
  (* MPI_BYTE semantics: how a byte region was assembled must not affect
     matching — only the total byte count does. *)
  Alcotest.(check bool) "2+2 blob matches 4 blob" true
    (matches (concat [ of_base ~count:2 Blob; of_base ~count:2 Blob ]) (of_base ~count:4 Blob));
  Alcotest.(check bool) "repeat-built blob matches" true
    (matches (repeat (of_base ~count:3 Blob) 4) (of_base ~count:12 Blob));
  Alcotest.(check bool) "different byte counts do not match" false
    (matches (of_base ~count:4 Blob) (of_base ~count:5 Blob));
  (* Segmentation independence must also hold for blob runs embedded
     between typed runs. *)
  let a = concat [ of_base Int64; of_base ~count:2 Blob; of_base ~count:6 Blob ] in
  let b = concat [ of_base Int64; of_base ~count:8 Blob ] in
  Alcotest.(check bool) "embedded blob runs merge" true (matches a b)

let test_zero_elem_decodes () =
  Alcotest.(check int) "int" 0 (Datatype.zero_elem Datatype.int);
  Alcotest.(check bool) "bool" false (Datatype.zero_elem Datatype.bool);
  let dt = Datatype.option_ Datatype.float in
  Alcotest.(check bool) "option" true (Datatype.zero_elem dt = None)

type my_record = { ra : int; rb : float; rc : char }

let my_record_dt =
  Datatype.(
    record "my_record"
      [
        field "ra" int (fun r -> r.ra);
        field "rb" float (fun r -> r.rb);
        field "rc" char (fun r -> r.rc);
      ]
      (fun ra rb rc -> { ra; rb; rc }))

let prop_record_roundtrip =
  let gen = QCheck.(triple int float printable_char) in
  QCheck.Test.make ~name:"record3 roundtrip" ~count:300 gen (fun (ra, rb, rc) ->
      let v = { ra; rb; rc } in
      let v' = roundtrip my_record_dt v in
      v'.ra = ra && Int64.bits_of_float v'.rb = Int64.bits_of_float rb && v'.rc = rc)

(* The field list at the arities no caller in the tree uses: one field,
   five mixed fields (one padded, which [record] leaves off the wire), and
   seven, through both layouts. *)
let prop_record1_roundtrip =
  QCheck.Test.make ~name:"1-field record roundtrip" ~count:300 QCheck.int (fun v ->
      let dt = Datatype.(record "r1" [ field "v" int Fun.id ] Fun.id) in
      Datatype.elem_size dt = 8 && roundtrip dt v = v)

type r5 = { f1 : int; f2 : bool; f3 : char; f4 : int32; f5 : float }

let prop_record5_roundtrip =
  let gen = QCheck.(tup5 int bool printable_char int32 float) in
  QCheck.Test.make ~name:"5-field record roundtrip" ~count:300 gen
    (fun (f1, f2, f3, f4, f5) ->
      let dt =
        Datatype.(
          record "r5"
            [
              field "f1" int (fun r -> r.f1);
              field "f2" bool (fun r -> r.f2);
              field ~pad_after:2 "f3" char (fun r -> r.f3);
              field "f4" int32 (fun r -> r.f4);
              field "f5" float (fun r -> r.f5);
            ]
            (fun f1 f2 f3 f4 f5 -> { f1; f2; f3; f4; f5 }))
      in
      let v' = roundtrip dt { f1; f2; f3; f4; f5 } in
      Datatype.elem_size dt = 22
      && (v'.f1, v'.f2, v'.f3, v'.f4) = (f1, f2, f3, f4)
      && Int64.bits_of_float v'.f5 = Int64.bits_of_float f5)

let prop_record7_roundtrip =
  let gen = QCheck.(array_of_size (Gen.return 7) int) in
  QCheck.Test.make ~name:"7-field record roundtrip (both layouts)" ~count:300 gen (fun a ->
      let fields =
        Datatype.
          [
            field "0" int (fun (a : int array) -> a.(0));
            field ~pad_after:1 "1" int (fun a -> a.(1));
            field "2" int (fun a -> a.(2));
            field "3" int (fun a -> a.(3));
            field "4" int (fun a -> a.(4));
            field ~pad_after:3 "5" int (fun a -> a.(5));
            field "6" int (fun a -> a.(6));
          ]
      in
      let make a0 a1 a2 a3 a4 a5 a6 = [| a0; a1; a2; a3; a4; a5; a6 |] in
      let skipping = Datatype.record "r7" fields make in
      let padded = Datatype.record_with_gaps "r7_gaps" fields make in
      let packed dt =
        let w = Wire.create_writer () in
        dt.Datatype.pack w a;
        Wire.length w
      in
      (Datatype.elem_size skipping, packed skipping) = (56, 56)
      && (Datatype.elem_size padded, packed padded) = (60, 60)
      && roundtrip skipping a = a
      && roundtrip padded a = a)

let prop_pair_roundtrip =
  QCheck.Test.make ~name:"pair roundtrip" ~count:300
    QCheck.(pair int int)
    (fun v -> roundtrip (Datatype.pair Datatype.int Datatype.int) v = v)

let prop_triple_roundtrip =
  QCheck.Test.make ~name:"triple roundtrip" ~count:300
    QCheck.(triple int bool int)
    (fun v -> roundtrip (Datatype.triple Datatype.int Datatype.bool Datatype.int) v = v)

let prop_option_roundtrip =
  QCheck.Test.make ~name:"option roundtrip" ~count:300
    QCheck.(option int)
    (fun v -> roundtrip (Datatype.option_ Datatype.int) v = v)

let prop_contiguous_roundtrip =
  let gen = QCheck.(array_of_size (Gen.return 5) int) in
  QCheck.Test.make ~name:"contiguous roundtrip" ~count:200 gen (fun v ->
      roundtrip (Datatype.contiguous ~count:5 Datatype.int) v = v)

let prop_array_pack_unpack =
  let gen = QCheck.(array_of_size Gen.small_nat int) in
  QCheck.Test.make ~name:"pack_array/unpack_array inverse" ~count:200 gen (fun v ->
      let w = Wire.create_writer () in
      Datatype.pack_array Datatype.int w v ~pos:0 ~count:(Array.length v);
      let r = Wire.reader_of_bytes (Wire.contents w) in
      Datatype.unpack_array Datatype.int r ~count:(Array.length v) = v)

let prop_size_matches_packed_bytes =
  let gen = QCheck.(triple int float printable_char) in
  QCheck.Test.make ~name:"elem_size = packed bytes" ~count:200 gen (fun (ra, rb, rc) ->
      let w = Wire.create_writer () in
      my_record_dt.Datatype.pack w { ra; rb; rc };
      Wire.length w = Datatype.elem_size my_record_dt)

(* ------------------------------------------------------------------ *)
(* Bulk fast path: the kernel dispatch must be an implementation detail.
   For every type that carries a kernel, packing through it and through
   the same type forced onto the general per-element path
   ([Datatype.without_bulk]) must produce byte-identical wire images, and
   each image must unpack correctly through either path. *)

let test_bulk_dispatch () =
  List.iter
    (fun (name, has) -> Alcotest.(check bool) name true has)
    [
      ("int has kernel", Datatype.bulk_available Datatype.int);
      ("float has kernel", Datatype.bulk_available Datatype.float);
      ("char has kernel", Datatype.bulk_available Datatype.char);
      ("byte has kernel", Datatype.bulk_available Datatype.byte);
      ("bool has kernel", Datatype.bulk_available Datatype.bool);
      ( "contiguous of builtin composes",
        Datatype.bulk_available (Datatype.contiguous ~count:3 Datatype.int) );
      ( "pair of builtins composes",
        Datatype.bulk_available (Datatype.pair Datatype.int Datatype.float) );
    ];
  Alcotest.(check bool) "record takes the general path" false
    (Datatype.bulk_available my_record_dt);
  Alcotest.(check bool) "without_bulk strips the kernel" false
    (Datatype.bulk_available (Datatype.without_bulk Datatype.int))

(* The kernel is really taken: packing and unpacking through a builtin
   with a kernel makes no per-element [pack]/[unpack] call, while the same
   type on the general path makes one per element each way. *)
let test_bulk_skips_callbacks () =
  let callbacks (dt : char Datatype.t) n =
    let calls = ref 0 in
    let dt =
      {
        dt with
        Datatype.pack =
          (fun w c ->
            incr calls;
            dt.Datatype.pack w c);
        unpack =
          (fun r ->
            incr calls;
            dt.Datatype.unpack r);
      }
    in
    let w = Wire.create_writer ~capacity:n () in
    Datatype.pack_array dt w (Array.make n 'x') ~pos:0 ~count:n;
    Datatype.unpack_into dt (Wire.reader_of_bytes (Wire.contents w)) (Array.make n ' ')
      ~pos:0 ~count:n;
    !calls
  in
  List.iter
    (fun (name, dt) ->
      Alcotest.(check int) (name ^ ": no per-element call") 0 (callbacks dt 300);
      Alcotest.(check int)
        (name ^ " without_bulk: one call per element each way")
        600
        (callbacks (Datatype.without_bulk dt) 300))
    [ ("byte", Datatype.byte); ("char", Datatype.char) ]

(* One equivalence case, placed so that an indexing slip in a kernel loop
   shows: the elements [v.(pos) .. v.(pos+count-1)] are packed after a
   [prefix] already in the writer, and read back by a reader that starts
   past that prefix and must end exactly at the end of the image. *)
let bulk_equiv (type elt) ?(eq : elt -> elt -> bool = ( = )) (dt : elt Datatype.t)
    (v : elt array) ~pos ~count ~(prefix : string) : bool =
  let general = Datatype.without_bulk dt in
  let pack_image d =
    let w = Wire.create_writer () in
    Wire.put_string w prefix;
    Datatype.pack_array d w v ~pos ~count;
    Wire.contents w
  in
  let img_fast = pack_image dt and img_general = pack_image general in
  let expect = Array.sub v pos count in
  let arr_eq a b = Array.length a = Array.length b && Array.for_all2 eq a b in
  let unpack d img =
    let r = Wire.reader_of_bytes ~pos:(String.length prefix) img in
    let a = Datatype.unpack_array d r ~count in
    if Wire.remaining r = 0 then Some a else None
  in
  (* In place, into the same sub-range of a zero-seeded array: the slots
     outside it must keep their seed. *)
  let into_ok =
    let zero = Datatype.zero_elem dt in
    let dst = Array.make (Array.length v) zero in
    let r = Wire.reader_of_bytes ~pos:(String.length prefix) img_general in
    Datatype.unpack_into dt r dst ~pos ~count;
    Wire.remaining r = 0
    && arr_eq expect (Array.sub dst pos count)
    && Array.for_all (eq zero) (Array.sub dst 0 pos)
    && Array.for_all (eq zero) (Array.sub dst (pos + count) (Array.length v - pos - count))
  in
  let same = function Some a -> arr_eq expect a | None -> false in
  (* Cross-unpack both images through both paths. *)
  Bytes.equal img_fast img_general
  && same (unpack dt img_general)
  && same (unpack general img_fast)
  && into_ok

let float_bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Floats whose bit patterns a careless kernel could alter: NaNs with
   payloads (quiet and signalling), signed zero, infinities, subnormals. *)
let float_specials =
  List.map Int64.float_of_bits
    [
      0x7FF8_0000_0000_0000L;
      0x7FF8_0000_DEAD_BEEFL;
      0xFFF4_0000_0000_0001L;
      0x7FF0_0000_0000_0001L;
      0x8000_0000_0000_0000L;
      0x7FF0_0000_0000_0000L;
      0xFFF0_0000_0000_0000L;
      0x0000_0000_0000_0001L;
      0x000F_FFFF_FFFF_FFFFL;
      0x800F_FFFF_FFFF_FFFFL;
    ]

let prop_bulk_equals_general =
  let open QCheck in
  (* Up to [n] elements, or 257-4096 (result arrays on the major heap). *)
  let arr ?(n = 32) g =
    Gen.(
      frequency [ (3, array_size (int_bound n) g); (1, array_size (int_range 257 4096) g) ])
  in
  let float_gen = Gen.(frequency [ (3, float); (1, oneofl float_specials) ]) in
  let gen =
    Gen.oneof
      [
        Gen.map (fun a -> `Int a) (arr Gen.int);
        Gen.map (fun a -> `Float a) (arr float_gen);
        Gen.map (fun a -> `Char a) (arr Gen.char);
        Gen.map (fun a -> `Byte a) (arr Gen.char);
        Gen.map (fun a -> `Bool a) (arr Gen.bool);
        Gen.map (fun a -> `Pair a) (arr ~n:16 Gen.(pair int float_gen));
        Gen.map (fun a -> `Rows a) (arr ~n:8 Gen.(array_size (return 3) int));
      ]
  in
  let len = function
    | `Int a -> Array.length a
    | `Float a -> Array.length a
    | `Char a | `Byte a -> Array.length a
    | `Bool a -> Array.length a
    | `Pair a -> Array.length a
    | `Rows a -> Array.length a
  in
  (* Half the cases take the whole array, the rest a random sub-range. *)
  let case =
    Gen.(
      gen >>= fun v ->
      let n = len v in
      let range =
        frequency
          [
            (1, return (0, n));
            ( 1,
              int_bound n >>= fun pos -> map (fun count -> (pos, count)) (int_bound (n - pos))
            );
          ]
      in
      map2
        (fun (pos, count) prefix -> (v, pos, count, prefix))
        range
        (string_size (int_bound 19)))
  in
  QCheck.Test.make ~name:"bulk fast path = general path (wire images)" ~count:300
    (QCheck.make case) (fun (v, pos, count, prefix) ->
      match v with
      | `Int a -> bulk_equiv Datatype.int a ~pos ~count ~prefix
      | `Float a -> bulk_equiv ~eq:float_bits_eq Datatype.float a ~pos ~count ~prefix
      | `Char a -> bulk_equiv Datatype.char a ~pos ~count ~prefix
      | `Byte a -> bulk_equiv Datatype.byte a ~pos ~count ~prefix
      | `Bool a -> bulk_equiv Datatype.bool a ~pos ~count ~prefix
      | `Pair a ->
          bulk_equiv
            ~eq:(fun (i, f) (i', f') -> i = i' && float_bits_eq f f')
            (Datatype.pair Datatype.int Datatype.float)
            a ~pos ~count ~prefix
      | `Rows a ->
          bulk_equiv (Datatype.contiguous ~count:3 Datatype.int) a ~pos ~count ~prefix)

(* The unrolled int (4 per iteration) and byte (8 per iteration) runs,
   at every count from 0 to 17, so each remainder meets 0, 1 and 2 full
   iterations: packed from a nonzero [pos], after a prefix that puts the
   run at a nonzero payload offset, and unpacked through a reader and
   straight from the payload slice, into a fresh array and into a given
   one. *)
let slice_equiv (type elt) (dt : elt Datatype.t) (v : elt array) ~pos ~count ~prefix =
  let w = Wire.create_writer () in
  Wire.put_string w prefix;
  Datatype.pack_array (Datatype.without_bulk dt) w v ~pos ~count;
  let img = Wire.contents w and off = String.length prefix in
  let len = Bytes.length img - off and expect = Array.sub v pos count in
  let zero = Datatype.zero_elem dt in
  let dst = Array.make (Array.length v) zero in
  Datatype.unpack_slice_into dt img ~off ~len dst ~pos ~count;
  Datatype.unpack_slice_array dt img ~off ~len ~count = expect
  && Array.sub dst pos count = expect
  && Array.for_all (( = ) zero) (Array.sub dst 0 pos)
  && Array.for_all (( = ) zero) (Array.sub dst (pos + count) (Array.length v - pos - count))

let prop_unrolled_remainders =
  let gen =
    QCheck.Gen.(
      quad (int_range 1 7) (string_size (int_range 1 15))
        (array_size (return 32) (int_range 1 max_int))
        (array_size (return 32) (map Char.chr (int_range 1 255))))
  in
  let print (pos, prefix, _, _) = Printf.sprintf "pos=%d offset=%d" pos (String.length prefix) in
  QCheck.Test.make ~name:"unrolled runs: every remainder, fast = general" ~count:200
    (QCheck.make ~print gen) (fun (pos, prefix, ints, bytes) ->
      List.for_all
        (fun count ->
          bulk_equiv Datatype.int ints ~pos ~count ~prefix
          && slice_equiv Datatype.int ints ~pos ~count ~prefix
          && bulk_equiv Datatype.byte bytes ~pos ~count ~prefix
          && slice_equiv Datatype.byte bytes ~pos ~count ~prefix
          || QCheck.Test.fail_reportf "count %d" count)
        (List.init 18 Fun.id))

(* A bool byte other than 0 or 1 is a decode error on the kernel path too,
   whether the bool is a bare element or sits inside a composed kernel. *)
let prop_bulk_bool_rejects_bad_byte =
  let gen =
    QCheck.(triple (array_of_size Gen.(int_range 1 64) bool) small_nat (int_range 2 255))
  in
  QCheck.Test.make ~name:"bulk bool rejects bytes other than 0/1" ~count:100 gen
    (fun (v, at, bad) ->
      let n = Array.length v in
      let at = at mod n in
      let corrupt d img_len at_byte =
        let w = Wire.create_writer () in
        Datatype.pack_array d w (Array.make n (Datatype.zero_elem d)) ~pos:0 ~count:n;
        let img = Wire.contents w in
        assert (Bytes.length img = img_len);
        Bytes.set img at_byte (Char.chr bad);
        img
      in
      let rejects d img =
        let raises f =
          match f (Wire.reader_of_bytes img) with
          | _ -> false
          | exception Wire.Decode_error { got; _ } -> got = bad
        in
        raises (fun r -> Datatype.unpack_array d r ~count:n)
        && raises (fun r ->
               let dst = Array.make n (Datatype.zero_elem d) in
               Datatype.unpack_into d r dst ~pos:0 ~count:n)
      in
      let pair = Datatype.pair Datatype.int Datatype.bool in
      Datatype.bulk_available Datatype.bool
      && rejects Datatype.bool (corrupt Datatype.bool n at)
      && rejects pair (corrupt pair (9 * n) ((9 * at) + 8)))

(* A count the reader cannot hold raises [Wire.Underflow] before anything
   proportional to it is allocated, including counts whose byte length
   wraps [max_int]. *)
let test_hostile_count () =
  let hostile = [ 17; (1 lsl 59) + 1; (1 lsl 61) + 1; max_int / 4; max_int ] in
  let probe (type e) name (dt : e Datatype.t) =
    List.iter
      (fun count ->
        let r = Wire.reader_of_bytes (Bytes.make 16 '\000') in
        let available, words =
          Alloc.measure (fun () ->
              match Datatype.unpack_array dt r ~count with
              | _ -> Alcotest.failf "%s count=%d: decoded from 16 bytes" name count
              | exception Wire.Underflow { available; _ } -> available)
        in
        Alcotest.(check int)
          (Printf.sprintf "%s count=%d available" name count)
          16 available;
        let allocated = Alloc.bytes words in
        if allocated > 1024. then
          Alcotest.failf "%s count=%d allocated %.0f bytes" name count allocated;
        Alcotest.(check int) (Printf.sprintf "%s count=%d: reader untouched" name count) 16
          (Wire.remaining r))
      hostile
  in
  probe "int" Datatype.int;
  probe "float" Datatype.float;
  probe "byte" Datatype.byte

(* The general per-element path bounds the count by the type's size
   before [Array.init] allocates: a kernel-less builtin, a [create]d
   type and a struct all reject a count 16 bytes cannot hold. *)
let test_hostile_count_general () =
  let hostile = [ 3; 17; (1 lsl 59) + 1; (1 lsl 61) + 1; max_int / 4; max_int ] in
  let probe (type e) name (dt : e Datatype.t) =
    List.iter
      (fun count ->
        let r = Wire.reader_of_bytes (Bytes.make 16 '\000') in
        let available, words =
          Alloc.measure (fun () ->
              match Datatype.unpack_array dt r ~count with
              | _ -> Alcotest.failf "%s count=%d: decoded from 16 bytes" name count
              | exception Wire.Underflow { available; _ } -> available)
        in
        Alcotest.(check int)
          (Printf.sprintf "%s count=%d available" name count)
          16 available;
        let allocated = Alloc.bytes words in
        if allocated > 1024. then
          Alcotest.failf "%s count=%d allocated %.0f bytes" name count allocated;
        Alcotest.(check int) (Printf.sprintf "%s count=%d: reader untouched" name count) 16
          (Wire.remaining r))
      hostile
  in
  probe "int without bulk" (Datatype.without_bulk Datatype.int);
  probe "created 8-byte int"
    (Datatype.create ~name:"int8" ~size:8
       ~signature:(Datatype.signature_of_count Datatype.int 1)
       ~pack:Wire.put_int ~unpack:Wire.get_int);
  probe "triple" (Datatype.triple Datatype.int Datatype.int Datatype.int);
  probe "bytes" Datatype.bytes

(* [Datatype.bytes]: one byte string per element, of any length, through
   the typed point-to-point and collective paths — several strings per
   message, empty ones and 1 MiB ones among them — and a zero frame is
   the empty string. *)
let test_bytes_datatype () =
  Alcotest.(check bytes) "zero_elem" Bytes.empty (Datatype.zero_elem Datatype.bytes);
  Alcotest.(check int) "elem_size" 8 (Datatype.elem_size Datatype.bytes);
  let mib = Bytes.init (1 lsl 20) (fun i -> Char.chr ((i * 7) land 255)) in
  let block src dst =
    [|
      Bytes.of_string (Printf.sprintf "%d->%d" src dst);
      Bytes.empty;
      (if (src + dst) mod 2 = 0 then mib else Bytes.make dst 'x');
    |]
  in
  let p = 3 in
  let ok =
    Engine.run_values ~ranks:p (fun comm ->
        let r = Comm.rank comm in
        (* Point to point: every rank sends its block for the next one. *)
        let next = (r + 1) mod p and prev = (r + p - 1) mod p in
        P2p.send comm Datatype.bytes ~dest:next (block r next);
        let got, status = P2p.recv comm Datatype.bytes ~source:prev () in
        let counts = Array.make p 3 in
        let displs = Array.init p (fun i -> 3 * i) in
        let all =
          Coll.alltoallv comm Datatype.bytes ~send_counts:counts ~send_displs:displs
            ~recv_counts:counts ~recv_displs:displs
            (Array.concat (List.init p (block r)))
        in
        got = block prev r
        && Status.count status = 3
        && all = Array.concat (List.init p (fun src -> block src r)))
  in
  Alcotest.(check (array bool)) "every rank got its strings" (Array.make p true) ok

(* A byte string's signature is its own: received as [byte] it is a type
   mismatch, not a misread. *)
let test_bytes_signature () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then
              P2p.send comm Datatype.bytes ~dest:1 [| Bytes.of_string "abc" |]
            else ignore (P2p.recv comm Datatype.byte ~source:0 ())))
   with Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_type; _ }; _ } ->
     caught := true);
  Alcotest.(check bool) "bytes received as byte raises ERR_TYPE" true !caught

(* The typed kernels allocate nothing per element: packing into a
   preheated pooled writer and unpacking in place are allocation-free, and
   a fresh receive array of n <= 256 elements costs exactly its own n + 1
   words (header included). *)
let test_bulk_allocation () =
  let pool = Wire.create_pool () in
  let check_type (type e) name (dt : e Datatype.t) (sample : int -> e) =
    List.iter
      (fun n ->
        let v = Array.init n sample in
        let bytes = n * Datatype.elem_size dt in
        Wire.preheat pool ~capacity:bytes;
        let w = Wire.acquire pool ~capacity:bytes in
        let packed =
          Alloc.minor_words (fun () -> Datatype.pack_array dt w v ~pos:0 ~count:n)
        in
        Alcotest.(check (float 0.)) (Printf.sprintf "%s pack_array n=%d" name n) 0. packed;
        let img = Wire.contents w in
        let dst = Array.make n (Datatype.zero_elem dt) in
        let r = Wire.reader_of_bytes img in
        let into =
          Alloc.minor_words (fun () -> Datatype.unpack_into dt r dst ~pos:0 ~count:n)
        in
        Alcotest.(check (float 0.)) (Printf.sprintf "%s unpack_into n=%d" name n) 0. into;
        Alcotest.(check bool)
          (Printf.sprintf "%s unpack_into n=%d values" name n)
          true (dst = v);
        if n <= 256 then begin
          let r = Wire.reader_of_bytes img in
          let fresh =
            Alloc.minor_words (fun () -> ignore (Datatype.unpack_array dt r ~count:n))
          in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s unpack_array n=%d" name n)
            (float_of_int (n + 1))
            fresh
        end)
      [ 1; 17; 256; 4096 ]
  in
  check_type "int" Datatype.int (fun i -> (i * 7919) - 5000);
  check_type "float" Datatype.float (fun i -> float_of_int i /. 3.);
  check_type "char" Datatype.char (fun i -> Char.chr (i land 255))

let test_gapped_vs_blob_sizes () =
  let gapped =
    Datatype.(
      record_with_gaps "gap_t"
        [
          field "a" int (fun (a, _, _) -> a);
          field ~pad_after:7 "b" char (fun (_, b, _) -> b);
          field "c" float (fun (_, _, c) -> c);
        ]
        (fun a b c -> (a, b, c)))
  in
  Alcotest.(check int) "padded size" 24 (Datatype.elem_size gapped);
  let v = (11, 'q', 2.5) in
  Alcotest.(check bool) "roundtrip with gaps" true (roundtrip gapped v = v)

(* The layouts are the ones the per-arity builders produced: bench_types'
   [struct MyType { int64 a; char c; /* 7 bytes pad */ double b; }]
   through both layouts packs to the bytes [record3] and
   [record3_with_gaps] wrote (hex captured from them), names and
   signatures included; the DC3 merge tuple keeps the signature of its
   hand-written [Datatype.create]. *)
type my_type = { a : int; c : char; b : float }

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let test_golden_layouts () =
  let fields =
    Datatype.
      [
        field "a" int (fun t -> t.a);
        field ~pad_after:7 "c" char (fun t -> t.c);
        field "b" float (fun t -> t.b);
      ]
  in
  let make a c b = { a; c; b } in
  let sample =
    [| { a = 0x0102030405060708; c = 'Z'; b = 1.5 }; { a = -2; c = '\255'; b = -0.25 } |]
  in
  let packed dt =
    let w = Wire.create_writer () in
    Datatype.pack_array dt w sample ~pos:0 ~count:2;
    hex (Wire.contents w)
  in
  let gapped = Datatype.record "my_type_struct" fields make in
  let padded = Datatype.record_with_gaps "my_type_gaps" fields make in
  Alcotest.(check (pair int int)) "bytes per element" (17, 24)
    (Datatype.elem_size gapped, Datatype.elem_size padded);
  Alcotest.(check string) "gap-skipping bytes"
    "08070605040302015a000000000000f83ffeffffffffffffffff000000000000d0bf" (packed gapped);
  Alcotest.(check string) "gaps-on-wire bytes"
    "08070605040302015a00000000000000000000000000f83f\
     feffffffffffffffff00000000000000000000000000d0bf"
    (packed padded);
  Alcotest.(check string) "gap-skipping signature" "[int64; char; float64]"
    (Signature.to_string gapped.Datatype.signature);
  Alcotest.(check string) "gaps-on-wire signature" "[blob[24]]"
    (Signature.to_string padded.Datatype.signature);
  let triple = Datatype.triple Datatype.int Datatype.bool Datatype.int in
  Alcotest.(check (pair string string)) "triple name and signature"
    ("triple(int,bool,int)", "[int64; bool; int64]")
    (Datatype.name triple, Signature.to_string triple.Datatype.signature);
  let dc3 = Suffix_array.Sa_dcx.mtuple_dt () in
  Alcotest.(check (pair string int)) "dc3 tuple name and size" ("dc3_tuple", 56)
    (Datatype.name dc3, Datatype.elem_size dc3);
  Alcotest.(check bool) "dc3 tuple signature" true
    (Signature.matches dc3.Datatype.signature (Signature.of_base ~count:7 Signature.Int64))

(* --- A ring forwards the bytes it received --- *)

(* A ring round sends on a received message's payload unchanged where it
   used to unpack the block and pack it again; that is the same message
   exactly when pack (unpack b) = b for every b a send packs. *)
type packed = Packed : 'a Datatype.t * 'a array -> packed

let repack_same (Packed (dt, v)) =
  let count = Array.length v in
  let pack a =
    let w = Wire.create_writer () in
    Datatype.pack_array dt w a ~pos:0 ~count;
    Wire.contents w
  in
  let b = pack v in
  Bytes.equal b
    (pack (Datatype.unpack_slice_array dt b ~off:0 ~len:(Bytes.length b) ~count))

let float_gen = QCheck.Gen.(frequency [ (3, float); (1, oneofl float_specials) ])

let prop_forward_equals_repack =
  let open QCheck.Gen in
  let arr g = array_size (int_bound 24) g in
  let case dt g = map (fun a -> Packed (dt, a)) (arr g) in
  let gapped =
    Datatype.(
      record_with_gaps "my_type_gaps"
        [
          field "a" int (fun t -> t.a);
          field ~pad_after:7 "c" char (fun t -> t.c);
          field "b" float (fun t -> t.b);
        ]
        (fun a c b -> { a; c; b }))
  in
  let codec = Serial.Codec.(list (pair string int)) in
  let gen =
    oneof
      [
        case Datatype.int int;
        case Datatype.int32 (map Int32.of_int int);
        case Datatype.int64 (map Int64.of_int int);
        case Datatype.float float_gen;
        case Datatype.float32 float_gen;
        case Datatype.char char;
        case Datatype.byte char;
        case Datatype.bool bool;
        case my_record_dt
          (map (fun (ra, rb, rc) -> { ra; rb; rc }) (triple int float_gen char));
        case gapped (map (fun (a, c, b) -> { a; c; b }) (triple int char float_gen));
        case (Datatype.contiguous ~count:3 Datatype.int) (array_size (return 3) int);
        case (Datatype.pair Datatype.int Datatype.float) (pair int float_gen);
        case Datatype.bytes (map Bytes.of_string (string_size (int_bound 40)));
        (* Archives as raw bytes, and as a [Serialized.datatype]'s
           elements: the same frames. *)
        case Datatype.bytes
          (map (Serial.Archive.encode codec)
             (list_size (int_bound 5) (pair string_printable int)));
        case
          (Kamping.Serialized.datatype codec)
          (list_size (int_bound 5) (pair string_printable int));
      ]
  in
  QCheck.Test.make ~name:"forwarded bytes = repacked bytes" ~count:500 (QCheck.make gen)
    repack_same

(* --- A reduction folds from the wire --- *)

(* [fold_slice] against the path it replaces: unpack the slice, then
   fold element by element with the operation's own function, on the
   left ([~incoming_left], a scan's order) or on the right.  Built-in
   int operations take the fused loop; everything else reads one element
   at a time. *)
type folded =
  | Folded : {
      dt : 'a Datatype.t;
      op : 'a Reduce_op.t;
      eq : 'a -> 'a -> bool;
      incoming : 'a array;
      acc : 'a array;
      pos : int;
    }
      -> folded

let fold_same (Folded { dt; op; eq; incoming; acc; pos }) ~incoming_left ~prefix =
  let w = Wire.create_writer () in
  Wire.put_string w prefix;
  let off = Wire.length w in
  let count = Array.length incoming in
  Datatype.pack_array dt w incoming ~pos:0 ~count;
  let b = Wire.contents w in
  let len = Bytes.length b - off in
  let expect = Array.copy acc in
  Array.iteri
    (fun i x ->
      let j = pos + i in
      expect.(j) <- (if incoming_left then op.f x expect.(j) else op.f expect.(j) x))
    (Datatype.unpack_slice_array dt b ~off ~len ~count);
  let got = Array.copy acc in
  Datatype.fold_slice dt op ~incoming_left b ~off ~len got ~pos ~count;
  Array.for_all2 eq expect got

let prop_fold_from_wire =
  let open QCheck.Gen in
  (* [count] incoming elements folded at [pos] of an accumulator of [n]. *)
  let case ?(eq = ( = )) dt ops g =
    int_bound 20 >>= fun n ->
    int_bound n >>= fun count ->
    int_bound (n - count) >>= fun pos ->
    map3
      (fun op acc incoming -> Folded { dt; op; eq; incoming; acc; pos })
      (oneofl ops) (array_size (return n) g) (array_size (return count) g)
  in
  let nc name f = Reduce_op.custom ~commutative:false ~name f in
  let int_ops =
    Reduce_op.
      [
        int_sum; int_prod; int_min; int_max; int_band; int_bor; int_bxor;
        nc "chain" (fun a b -> (a * 31) + b);
        (* A built-in's record with another function is not built-in. *)
        { int_sum with f = ( - ) };
      ]
  in
  let float_ops =
    Reduce_op.
      [
        float_sum;
        float_prod;
        float_min;
        float_max;
        nc "fchain" (fun a b -> a -. (2. *. b));
      ]
  in
  let char_ops =
    [
      Reduce_op.custom ~name:"cmax" (fun a b -> if a >= b then a else b);
      nc "cchain" (fun a b -> Char.unsafe_chr (((Char.code a * 3) + Char.code b) land 255));
    ]
  in
  (* Specials twice as often as other floats: two NaNs with different
     payloads in one slot show which operand an operation keeps. *)
  let float_gen = frequency [ (1, float); (2, oneofl float_specials) ] in
  let record_op =
    nc "rchain" (fun x y -> { ra = (x.ra * 31) + y.ra; rb = x.rb -. y.rb; rc = y.rc })
  in
  let rows_op =
    nc "rows" (fun (x : int array) y -> Array.map2 (fun a b -> (a * 31) + b) x y)
  in
  let gen =
    oneof
      [
        case Datatype.int int_ops int;
        case ~eq:float_bits_eq Datatype.float float_ops float_gen;
        case ~eq:float_bits_eq Datatype.float32 float_ops float_gen;
        case Datatype.bool Reduce_op.[ bool_and; bool_or; bool_xor ] bool;
        case Datatype.char char_ops char;
        case Datatype.byte char_ops char;
        case Datatype.int32
          [ Reduce_op.custom ~name:"add32" Int32.add ]
          (map Int32.of_int int);
        case Datatype.int64 [ nc "sub64" Int64.sub ] (map Int64.of_int int);
        case
          (Datatype.contiguous ~count:3 Datatype.int)
          [ rows_op ] (array_size (return 3) int);
        (* The general path: no kernel, a reader per slice. *)
        case (Datatype.without_bulk Datatype.int) int_ops int;
        case ~eq:float_bits_eq (Datatype.without_bulk Datatype.float) float_ops float_gen;
        case
          ~eq:(fun x y ->
            x.ra = y.ra && float_bits_eq x.rb y.rb && x.rc = y.rc)
          my_record_dt [ record_op ]
          (map (fun (ra, rb, rc) -> { ra; rb; rc }) (triple int float_gen char));
      ]
  in
  let gen = QCheck.Gen.(triple gen bool (string_size (int_bound 19))) in
  QCheck.Test.make ~name:"fold from the wire = unpack then fold" ~count:2000
    (QCheck.make gen) (fun (case, incoming_left, prefix) ->
      fold_same case ~incoming_left ~prefix)

(* --- Fresh receive arrays, decoded straight into a new block --- *)

let random_byte st = Char.chr (Random.State.int st 256)

(* A wire image for one fresh-decode case: [off] bytes of random prefix,
   then [count] elements drawn from [st], and the elements it must decode
   to.  The [int] words are raw 64-bit patterns, most of them outside
   OCaml's 63-bit range, so a decode must truncate them as
   [Int64.to_int] does. *)
let int_image st ~off ~count =
  let img = Bytes.init (off + (8 * count)) (fun _ -> random_byte st) in
  for i = 0 to count - 1 do
    Bytes.set_int64_le img (off + (8 * i)) (Random.State.bits64 st)
  done;
  (img, Array.init count (fun i -> Int64.to_int (Bytes.get_int64_le img (off + (8 * i)))))

let byte_image st ~off ~count =
  let img = Bytes.init (off + count) (fun _ -> random_byte st) in
  (img, Array.init count (fun i -> Bytes.get img (off + i)))

(* The fresh decode of [count] elements at [off] equals the decode into
   an [Array.make] reference of the same image, and both equal [expect]:
   from the slice ([unpack_slice_array] against [unpack_slice_into]) and
   through a reader ([unpack_array], which must end at the image's end).
   With [~words], the fresh slice decode must allocate exactly the
   array: [count + 1] words on the minor heap up to 256 elements, and
   directly on the major heap above. *)
let fresh_equals_into (type e) ?(words = false) (dt : e Datatype.t) img ~off ~count
    (expect : e array) =
  let len = Bytes.length img - off in
  let fresh, w =
    Alloc.measure (fun () -> Datatype.unpack_slice_array dt img ~off ~len ~count)
  in
  let reference = Array.make count (Datatype.zero_elem dt) in
  Datatype.unpack_slice_into dt img ~off ~len reference ~pos:0 ~count;
  let r = Wire.reader_of_bytes ~pos:off img in
  let through_reader = Datatype.unpack_array dt r ~count in
  let block = if count = 0 then 0. else float_of_int (count + 1) in
  let minor, major = if count <= 256 then (block, 0.) else (0., block) in
  (fresh = reference || QCheck.Test.fail_reportf "fresh <> into")
  && (fresh = expect || QCheck.Test.fail_reportf "fresh <> expected")
  && (through_reader = expect && Wire.remaining r = 0
     || QCheck.Test.fail_reportf "reader decode <> expected")
  && ((not words)
     || (w.Alloc.minor = minor && w.Alloc.direct_major = major)
     || QCheck.Test.fail_reportf "allocated %.0f minor, %.0f major words, not %.0f, %.0f"
          w.Alloc.minor w.Alloc.direct_major minor major)

let fresh_counts = [ 0; 1; 255; 256; 257; 4096; 32768 ]

let prop_fresh_equals_into =
  let kinds = [ `Int; `Byte; `Char; `Rows; `Bytes ] in
  let gen = QCheck.Gen.(quad (oneofl kinds) (oneofl fresh_counts) (int_bound 15) int) in
  let print (kind, count, off, seed) =
    Printf.sprintf "%s count=%d off=%d seed=%d"
      (match kind with
      | `Int -> "int"
      | `Byte -> "byte"
      | `Char -> "char"
      | `Rows -> "contiguous(3,int)"
      | `Bytes -> "bytes")
      count off seed
  in
  QCheck.Test.make ~name:"fresh decode = decode into an Array.make reference" ~count:200
    (QCheck.make ~print gen) (fun (kind, count, off, seed) ->
      let st = Random.State.make [| seed |] in
      match kind with
      | `Int ->
          let img, expect = int_image st ~off ~count in
          fresh_equals_into ~words:true Datatype.int img ~off ~count expect
      | `Byte ->
          let img, expect = byte_image st ~off ~count in
          fresh_equals_into ~words:true Datatype.byte img ~off ~count expect
      | `Char ->
          let img, expect = byte_image st ~off ~count in
          fresh_equals_into ~words:true Datatype.char img ~off ~count expect
      | `Rows ->
          let img, ints = int_image st ~off ~count:(3 * count) in
          let rows = Array.init count (fun i -> Array.sub ints (3 * i) 3) in
          fresh_equals_into (Datatype.contiguous ~count:3 Datatype.int) img ~off ~count rows
      | `Bytes ->
          let strings =
            Array.init count (fun _ ->
                Bytes.init (Random.State.int st 6) (fun _ -> random_byte st))
          in
          let w = Wire.create_writer () in
          Wire.put_string w (String.make off '\255');
          Datatype.pack_array Datatype.bytes w strings ~pos:0 ~count;
          fresh_equals_into Datatype.bytes (Wire.contents w) ~off ~count strings)

(* The fresh decodes under a busy collector: a minor heap of 4096 words
   kept partly live by young blocks that the loop replaces at random, a
   young wire buffer for most small decodes, full major collections and
   compactions between decodes.  Some small decodes must start a minor
   collection themselves (the buffer moves while the kernel allocates),
   and every decoded array and every live block must read back intact. *)
let test_fresh_decode_gc_stress () =
  let st = Random.State.make [| 43 |] in
  let live = Array.make 64 [||] in
  let collected_in_decode = ref 0 in
  let decodes_to dt ~off ~count (img, expect) () =
    Datatype.unpack_slice_array dt img ~off ~len:(Bytes.length img - off) ~count = expect
  in
  let stress () =
    for iter = 1 to 4000 do
      let count =
        match iter mod 4 with
        | 0 -> 255
        | 1 -> 256
        | 2 -> 1 + Random.State.int st 200
        | _ -> 257 + Random.State.int st 4000
      in
      let off = Random.State.int st 8 in
      let decode =
        if Random.State.bool st then
          decodes_to Datatype.int ~off ~count (int_image st ~off ~count)
        else decodes_to Datatype.byte ~off ~count (byte_image st ~off ~count)
      in
      for _ = 1 to Random.State.int st 16 do
        let j = Random.State.int st 64 in
        live.(j) <- Array.make (1 + Random.State.int st 250) j
      done;
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      let ok = decode () in
      if (Gc.quick_stat ()).Gc.minor_collections > before && count <= 256 then
        incr collected_in_decode;
      if not ok then Alcotest.failf "iteration %d: count %d decoded wrong" iter count;
      Array.iteri
        (fun j a ->
          if not (Array.for_all (( = ) j) a) then
            Alcotest.failf "iteration %d: live block %d corrupted" iter j)
        live;
      if iter mod 97 = 0 then Gc.full_major ();
      if iter mod 331 = 0 then Gc.compact ()
    done
  in
  let saved = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.minor_heap_size = 4096 };
      stress ());
  if !collected_in_decode = 0 then
    Alcotest.fail "no small decode started a minor collection; the stress missed its case"

(* The same decodes through [P2p.recv] in two simulations pooled on two
   domains ([Engine.run_many]): each domain's minor heap, major
   allocations and collections run beside the other's. *)
let test_fresh_decode_pooled () =
  let job seed () =
    Engine.run_values ~clock_mode:Runtime.Virtual_only ~ranks:2 (fun comm ->
        (* Both ranks draw the same payloads from the same seed. *)
        let st = Random.State.make [| seed |] in
        List.for_all
          (fun count ->
            let ints = Array.init count (fun _ -> Random.State.bits st - (1 lsl 29))
            and chars = Array.init count (fun _ -> random_byte st) in
            if Comm.rank comm = 0 then begin
              P2p.send comm Datatype.int ~dest:1 ints;
              P2p.send comm Datatype.byte ~dest:1 chars;
              true
            end
            else
              let got_ints, _ = P2p.recv comm Datatype.int ~source:0 () in
              let got_chars, _ = P2p.recv comm Datatype.byte ~source:0 () in
              got_ints = ints && got_chars = chars)
          (fresh_counts @ List.rev fresh_counts @ fresh_counts))
  in
  let results = Engine.run_many [ job 1; job 2 ] in
  Alcotest.(check (list (array bool)))
    "every receive decoded its payload"
    [ [| true; true |]; [| true; true |] ]
    results

(* Float runs are one block copy each way: packed images equal the
   per-element little-endian encoding of each float's bits, and every
   unpack (fresh, through a reader, into a range) returns the same bits
   — NaN payloads, signalling NaNs, subnormals and -0. included. *)
let prop_float_runs_bit_exact =
  let open QCheck.Gen in
  let of_bits = Int64.float_of_bits in
  let elt =
    frequency
      [
        (2, float);
        (1, oneofl float_specials);
        (2, map of_bits ui64);
        (* Subnormals and NaNs with random payloads, either sign. *)
        (1, map (fun b -> of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) ui64);
        (1, map (fun b -> of_bits (Int64.logor b 0x7FF0_0000_0000_0001L)) ui64);
      ]
  in
  let arr =
    frequency
      [ (3, array_size (int_bound 40) elt); (1, array_size (int_range 257 4096) elt) ]
  in
  let case =
    arr >>= fun v ->
    let n = Array.length v in
    int_bound n >>= fun pos ->
    int_bound (n - pos) >>= fun count ->
    map (fun off -> (v, pos, count, off)) (int_bound 15)
  in
  let print (v, pos, count, off) =
    Printf.sprintf "n=%d pos=%d count=%d off=%d" (Array.length v) pos count off
  in
  QCheck.Test.make ~name:"float runs: bit-exact both ways" ~count:300
    (QCheck.make ~print case) (fun (v, pos, count, off) ->
      let bits_eq a b =
        Array.length a = Array.length b && Array.for_all2 float_bits_eq a b
      in
      let w = Wire.create_writer () in
      Wire.put_string w (String.make off 'p');
      Datatype.pack_array Datatype.float w v ~pos ~count;
      let img = Wire.contents w in
      let reference = Bytes.make (off + (8 * count)) 'p' in
      for i = 0 to count - 1 do
        Bytes.set_int64_le reference (off + (8 * i)) (Int64.bits_of_float v.(pos + i))
      done;
      let expect = Array.sub v pos count and len = 8 * count in
      let into = Array.make (Array.length v) 1.5 in
      Datatype.unpack_slice_into Datatype.float img ~off ~len into ~pos ~count;
      let outside_kept =
        Array.for_all (( = ) 1.5) (Array.sub into 0 pos)
        && Array.for_all (( = ) 1.5)
             (Array.sub into (pos + count) (Array.length v - pos - count))
      in
      (Bytes.equal img reference || QCheck.Test.fail_reportf "packed image differs")
      && (bits_eq expect (Datatype.unpack_slice_array Datatype.float img ~off ~len ~count)
         || QCheck.Test.fail_reportf "fresh slice decode differs")
      && (let r = Wire.reader_of_bytes ~pos:off img in
          bits_eq expect (Datatype.unpack_array Datatype.float r ~count)
          || QCheck.Test.fail_reportf "reader decode differs")
      && ((bits_eq expect (Array.sub into pos count) && outside_kept)
         || QCheck.Test.fail_reportf "decode into a range differs"))

let tests =
  [
    Alcotest.test_case "builtin sizes" `Quick test_builtin_sizes;
    Alcotest.test_case "builtins committed" `Quick test_builtins_committed;
    Alcotest.test_case "derived commit lifecycle" `Quick test_derived_commit_lifecycle;
    Alcotest.test_case "cannot free builtin" `Quick test_cannot_free_builtin;
    Alcotest.test_case "with_committed scopes" `Quick test_with_committed_scopes;
    Alcotest.test_case "uncommitted send rejected" `Quick test_uncommitted_send_rejected;
    Alcotest.test_case "signature mismatch" `Quick test_signature_mismatch_detected;
    Alcotest.test_case "blob signature normalization" `Quick test_blob_matches_any_blob;
    Alcotest.test_case "zero-count signature" `Quick test_signature_zero_count;
    Alcotest.test_case "signature normalization" `Quick test_signature_normalization;
    Alcotest.test_case "blob segmentation independence" `Quick
      test_blob_segmentation_independent;
    Alcotest.test_case "zero_elem decodes" `Quick test_zero_elem_decodes;
    Alcotest.test_case "gapped struct size" `Quick test_gapped_vs_blob_sizes;
    Alcotest.test_case "struct layouts unchanged (golden bytes)" `Quick test_golden_layouts;
    qtest prop_record1_roundtrip;
    qtest prop_record5_roundtrip;
    qtest prop_record7_roundtrip;
    Alcotest.test_case "bulk kernel skips per-element calls" `Quick
      test_bulk_skips_callbacks;
    Alcotest.test_case "bulk kernel dispatch" `Quick test_bulk_dispatch;
    qtest prop_bulk_equals_general;
    qtest prop_unrolled_remainders;
    qtest prop_bulk_bool_rejects_bad_byte;
    Alcotest.test_case "hostile unpack count" `Quick test_hostile_count;
    Alcotest.test_case "hostile unpack count, general path" `Quick test_hostile_count_general;
    Alcotest.test_case "bytes: send/recv and alltoallv" `Quick test_bytes_datatype;
    Alcotest.test_case "bytes: own signature" `Quick test_bytes_signature;
    Alcotest.test_case "bulk kernels allocate nothing per element" `Quick
      test_bulk_allocation;
    qtest prop_record_roundtrip;
    qtest prop_pair_roundtrip;
    qtest prop_triple_roundtrip;
    qtest prop_option_roundtrip;
    qtest prop_contiguous_roundtrip;
    qtest prop_array_pack_unpack;
    qtest prop_size_matches_packed_bytes;
    qtest prop_forward_equals_repack;
    qtest prop_fold_from_wire;
    qtest prop_fresh_equals_into;
    Alcotest.test_case "fresh decodes under GC stress" `Quick test_fresh_decode_gc_stress;
    Alcotest.test_case "fresh decodes in pooled runs" `Quick test_fresh_decode_pooled;
    qtest prop_float_runs_bit_exact;
  ]

let () = Alcotest.run "datatype" [ ("datatype", tests) ]
