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
  Datatype.record3 "my_record"
    (Datatype.field "ra" Datatype.int (fun r -> r.ra))
    (Datatype.field "rb" Datatype.float (fun r -> r.rb))
    (Datatype.field "rc" Datatype.char (fun r -> r.rc))
    (fun ra rb rc -> { ra; rb; rc })

let prop_record_roundtrip =
  let gen = QCheck.(triple int float printable_char) in
  QCheck.Test.make ~name:"record3 roundtrip" ~count:300 gen (fun (ra, rb, rc) ->
      let v = { ra; rb; rc } in
      let v' = roundtrip my_record_dt v in
      v'.ra = ra && Int64.bits_of_float v'.rb = Int64.bits_of_float rb && v'.rc = rc)

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
  Alcotest.(check bool) "record3 takes the general path" false
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
        let b0 = Gc.allocated_bytes () in
        (match Datatype.unpack_array dt r ~count with
        | _ -> Alcotest.failf "%s count=%d: decoded from 16 bytes" name count
        | exception Wire.Underflow { available; _ } ->
            Alcotest.(check int)
              (Printf.sprintf "%s count=%d available" name count)
              16 available);
        let allocated = Gc.allocated_bytes () -. b0 in
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
        let b0 = Gc.allocated_bytes () in
        (match Datatype.unpack_array dt r ~count with
        | _ -> Alcotest.failf "%s count=%d: decoded from 16 bytes" name count
        | exception Wire.Underflow { available; _ } ->
            Alcotest.(check int)
              (Printf.sprintf "%s count=%d available" name count)
              16 available);
        let allocated = Gc.allocated_bytes () -. b0 in
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
  probe "triple" (Datatype.triple Datatype.int Datatype.int Datatype.int)

(* The typed kernels allocate nothing per element: packing into a
   preheated pooled writer and unpacking in place are allocation-free, and
   a fresh receive array of n <= 256 elements costs exactly its own n + 1
   words (header included). *)
let test_bulk_allocation () =
  let minor_words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let pool = Wire.create_pool () in
  let check_type (type e) name (dt : e Datatype.t) (sample : int -> e) =
    List.iter
      (fun n ->
        let v = Array.init n sample in
        let bytes = n * Datatype.elem_size dt in
        Wire.preheat pool ~capacity:bytes;
        let w = Wire.acquire pool ~capacity:bytes in
        let packed = minor_words (fun () -> Datatype.pack_array dt w v ~pos:0 ~count:n) in
        Alcotest.(check (float 0.)) (Printf.sprintf "%s pack_array n=%d" name n) 0. packed;
        let img = Wire.contents w in
        let dst = Array.make n (Datatype.zero_elem dt) in
        let r = Wire.reader_of_bytes img in
        let into = minor_words (fun () -> Datatype.unpack_into dt r dst ~pos:0 ~count:n) in
        Alcotest.(check (float 0.)) (Printf.sprintf "%s unpack_into n=%d" name n) 0. into;
        Alcotest.(check bool)
          (Printf.sprintf "%s unpack_into n=%d values" name n)
          true (dst = v);
        if n <= 256 then begin
          let r = Wire.reader_of_bytes img in
          let fresh =
            minor_words (fun () -> ignore (Datatype.unpack_array dt r ~count:n))
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
    Datatype.record3_with_gaps "gap_t"
      (Datatype.field "a" Datatype.int (fun (a, _, _) -> a))
      (Datatype.field ~pad_after:7 "b" Datatype.char (fun (_, b, _) -> b))
      (Datatype.field "c" Datatype.float (fun (_, _, c) -> c))
      (fun a b c -> (a, b, c))
  in
  Alcotest.(check int) "padded size" 24 (Datatype.elem_size gapped);
  let v = (11, 'q', 2.5) in
  Alcotest.(check bool) "roundtrip with gaps" true (roundtrip gapped v = v)

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
    Alcotest.test_case "bulk kernel skips per-element calls" `Quick
      test_bulk_skips_callbacks;
    Alcotest.test_case "bulk kernel dispatch" `Quick test_bulk_dispatch;
    qtest prop_bulk_equals_general;
    qtest prop_bulk_bool_rejects_bad_byte;
    Alcotest.test_case "hostile unpack count" `Quick test_hostile_count;
    Alcotest.test_case "hostile unpack count, general path" `Quick test_hostile_count_general;
    Alcotest.test_case "bulk kernels allocate nothing per element" `Quick
      test_bulk_allocation;
    qtest prop_record_roundtrip;
    qtest prop_pair_roundtrip;
    qtest prop_triple_roundtrip;
    qtest prop_option_roundtrip;
    qtest prop_contiguous_roundtrip;
    qtest prop_array_pack_unpack;
    qtest prop_size_matches_packed_bytes;
  ]

let () = Alcotest.run "datatype" [ ("datatype", tests) ]
