(* Typed datatype descriptors.

   A ['a t] describes how values of type ['a] are laid out on the wire:
   their per-element byte size, their type signature (for send/recv matching
   checks), and pack/unpack functions.  This is the simulator-side analogue
   of MPI_Datatype, and the substrate on which the binding layer's
   compile-time type mapping (paper §III-D) is built:

   - builtins ([int], [float], ...) correspond to MPI's basic types;
   - [record] and [record_with_gaps] build struct types from one typed
     field list, the analogue of MPI_Type_create_struct driven by PFR
     reflection: the layout cannot go out of sync with the data because
     the fields *are* the accessors;
   - [blob] maps a trivially-copyable value to an opaque contiguous byte
     block, the paper's preferred default (§III-D4): one bulk copy,
     alignment gaps included on the wire;
   - [contiguous], [pair], [option_], [create] cover derived and dynamic
     (runtime-sized) types.

   Derived types must be committed before use and freed afterwards.  Each
   type carries its own commit state, and one process-wide counter of
   committed-but-not-freed derived types lets tests assert the absence of
   resource leaks (the paper notes MPL/RWTH-MPI leak committed types). *)

type kind = Builtin | Derived

(* Bulk fast-path kernel for fixed-size, contiguously-encoded element
   types (builtins, [blob], and compositions of them).  [pack_array],
   [unpack_array] and [unpack_into] match on it ONCE per call, do one
   [Wire.reserve_offset]/[read_offset] range check for the whole run, and
   then loop without touching the [Wire] cursor.

   [int], [float] and [char]/[byte] get their own constructors: their
   OCaml arrays are flat ([float array]) or hold immediates, so the typed
   loops store and load with unchecked 64-bit/byte accesses, with no
   closure call, no float boxing and no [caml_modify] write barrier per
   element.  Every other kernel is a pair of closures ([K_fn]):
   [bk_write buf pos v] stores exactly [elem_size] bytes at [pos];
   [bk_read buf pos] loads them.  A kernel only ever runs inside a range
   that a [Wire] call has already checked.  The kernel is chosen once when
   the type is constructed (for builtins, that is commit time: they are
   born committed). *)
type _ bulk_kernel =
  | K_int : int bulk_kernel
  | K_float : float bulk_kernel
  | K_char : char bulk_kernel
  | K_fn : {
      bk_write : Bytes.t -> int -> 'a -> unit;
      bk_read : Bytes.t -> int -> 'a;
    }
      -> 'a bulk_kernel

(* Commit/free state, one per constructed type.  Builtins are born
   committed and never change it; [without_bulk] copies share it. *)
type state = { mutable committed : bool; mutable freed : bool }

type 'a t = {
  name : string;
  kind : kind;
  elem_size : int;  (* wire bytes per element *)
  signature : Signature.t;  (* per element *)
  pack : Wire.writer -> 'a -> unit;
  unpack : Wire.reader -> 'a;
  bulk : 'a bulk_kernel option;  (* fast path; [None] = general path *)
  state : state;
  id : 'a Type.Id.t;  (* one per constructed type; [without_bulk] copies share it *)
}

(* ------------------------------------------------------------------ *)
(* Commit/free lifecycle *)

(* Derived types committed and not yet freed, across the process: a type
   value may outlive a run and move between runs, so the leak detector
   cannot be per run. *)
let live_derived = Atomic.make 0

let commit t =
  if t.state.freed then invalid_arg ("Datatype.commit: type already freed: " ^ t.name);
  if not t.state.committed then begin
    t.state.committed <- true;
    Atomic.incr live_derived
  end

let free t =
  if t.kind = Builtin then invalid_arg "Datatype.free: cannot free builtin";
  if t.state.freed then invalid_arg ("Datatype.free: double free: " ^ t.name);
  t.state.freed <- true;
  if t.state.committed then Atomic.decr live_derived

let is_committed t = t.state.committed && not t.state.freed

(* Number of derived types that were committed but never freed; builtins are
   permanently committed and not counted.  Tests use this to detect resource
   leakage (the paper notes that MPL and RWTH-MPI leak committed types). *)
let live_derived_count () = Atomic.get live_derived

(* ------------------------------------------------------------------ *)
(* Kernel loops *)

(* Unchecked little-endian 64-bit access.  Every caller works inside a run
   that one [Wire.reserve_offset]/[Wire.read_offset] call has
   range-checked. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_le64 b p = if Sys.big_endian then swap64 (get64u b p) else get64u b p

let[@inline] set_le64 b p v = set64u b p (if Sys.big_endian then swap64 v else v)

(* One element through any kernel: the composed kernels of [contiguous]
   and [pair] are built from these. *)
let kwrite : type a. a bulk_kernel -> Bytes.t -> int -> a -> unit =
 fun k b p v ->
  match k with
  | K_int -> set_le64 b p (Int64.of_int v)
  | K_float -> set_le64 b p (Int64.bits_of_float v)
  | K_char -> Bytes.unsafe_set b p v
  | K_fn f -> f.bk_write b p v

let kread : type a. a bulk_kernel -> Bytes.t -> int -> a =
 fun k b p ->
  match k with
  | K_int -> Int64.to_int (get_le64 b p)
  | K_float -> Int64.float_of_bits (get_le64 b p)
  | K_char -> Bytes.unsafe_get b p
  | K_fn f -> f.bk_read b p

(* A run of [count] elements of [sz] bytes each, starting at byte [off].
   The typed branches see monomorphic [int]/[float]/[char] arrays, so the
   compiler emits plain unboxed loads and stores. *)

let write_run : type a.
    a bulk_kernel -> sz:int -> Bytes.t -> int -> a array -> pos:int -> count:int -> unit =
 fun k ~sz buf off a ~pos ~count ->
  match k with
  | K_int ->
      for i = 0 to count - 1 do
        set_le64 buf (off + (8 * i)) (Int64.of_int (Array.unsafe_get a (pos + i)))
      done
  | K_float ->
      for i = 0 to count - 1 do
        set_le64 buf (off + (8 * i)) (Int64.bits_of_float (Array.unsafe_get a (pos + i)))
      done
  | K_char ->
      for i = 0 to count - 1 do
        Bytes.unsafe_set buf (off + i) (Array.unsafe_get a (pos + i))
      done
  | K_fn f ->
      for i = 0 to count - 1 do
        f.bk_write buf (off + (sz * i)) (Array.unsafe_get a (pos + i))
      done

let read_run_into : type a.
    a bulk_kernel -> sz:int -> Bytes.t -> int -> a array -> pos:int -> count:int -> unit =
 fun k ~sz buf off dst ~pos ~count ->
  match k with
  | K_int ->
      for i = 0 to count - 1 do
        Array.unsafe_set dst (pos + i) (Int64.to_int (get_le64 buf (off + (8 * i))))
      done
  | K_float ->
      for i = 0 to count - 1 do
        Array.unsafe_set dst (pos + i) (Int64.float_of_bits (get_le64 buf (off + (8 * i))))
      done
  | K_char ->
      for i = 0 to count - 1 do
        Array.unsafe_set dst (pos + i) (Bytes.unsafe_get buf (off + i))
      done
  | K_fn f ->
      for i = 0 to count - 1 do
        Array.unsafe_set dst (pos + i) (f.bk_read buf (off + (sz * i)))
      done

(* A fresh array: the typed branches allocate it filled with an immediate
   (or unboxed) placeholder and overwrite it with plain stores. *)
let read_run : type a. a bulk_kernel -> sz:int -> Bytes.t -> int -> count:int -> a array =
 fun k ~sz buf off ~count ->
  match k with
  | K_int ->
      let a = Array.make count 0 in
      read_run_into k ~sz buf off a ~pos:0 ~count;
      a
  | K_float ->
      let a = Array.create_float count in
      read_run_into k ~sz buf off a ~pos:0 ~count;
      a
  | K_char ->
      let a = Array.make count '\000' in
      read_run_into k ~sz buf off a ~pos:0 ~count;
      a
  | K_fn f -> Array.init count (fun i -> f.bk_read buf (off + (sz * i)))

(* ------------------------------------------------------------------ *)
(* Builtins *)

let builtin ~name ~size ~signature ~pack ~unpack ~bulk =
  {
    name;
    kind = Builtin;
    elem_size = size;
    signature;
    pack;
    unpack;
    bulk = Some bulk;
    state = { committed = true; freed = false };
    id = Type.Id.make ();
  }

(* Each builtin kernel must produce exactly the bytes its [Wire] put/get
   pair would — the fast-path≡general-path qcheck property enforces this. *)

let int : int t =
  builtin ~name:"int" ~size:8
    ~signature:(Signature.of_base Signature.Int64)
    ~pack:Wire.put_int ~unpack:Wire.get_int ~bulk:K_int

let int32 : int32 t =
  builtin ~name:"int32" ~size:4
    ~signature:(Signature.of_base Signature.Int32)
    ~pack:Wire.put_int32 ~unpack:Wire.get_int32
    ~bulk:
      (K_fn
         { bk_write = (fun b p v -> Bytes.set_int32_le b p v); bk_read = Bytes.get_int32_le })

let int64 : int64 t =
  builtin ~name:"int64" ~size:8
    ~signature:(Signature.of_base Signature.Int64)
    ~pack:Wire.put_int64 ~unpack:Wire.get_int64
    ~bulk:
      (K_fn
         { bk_write = (fun b p v -> Bytes.set_int64_le b p v); bk_read = Bytes.get_int64_le })

let float : float t =
  builtin ~name:"float" ~size:8
    ~signature:(Signature.of_base Signature.Float64)
    ~pack:Wire.put_float ~unpack:Wire.get_float ~bulk:K_float

let float32 : float t =
  builtin ~name:"float32" ~size:4
    ~signature:(Signature.of_base Signature.Float32)
    ~pack:Wire.put_float32 ~unpack:Wire.get_float32
    ~bulk:
      (K_fn
         {
           bk_write = (fun b p v -> Bytes.set_int32_le b p (Int32.bits_of_float v));
           bk_read = (fun b p -> Int32.float_of_bits (Bytes.get_int32_le b p));
         })

let char : char t =
  builtin ~name:"char" ~size:1
    ~signature:(Signature.of_base Signature.Char)
    ~pack:Wire.put_char ~unpack:Wire.get_char ~bulk:K_char

let byte : char t =
  builtin ~name:"byte" ~size:1
    ~signature:(Signature.of_base Signature.Blob)
    ~pack:Wire.put_char ~unpack:Wire.get_char ~bulk:K_char

let bool : bool t =
  builtin ~name:"bool" ~size:1
    ~signature:(Signature.of_base Signature.Bool)
    ~pack:Wire.put_bool ~unpack:Wire.get_bool
    ~bulk:
      (K_fn
         {
           bk_write = (fun b p v -> Bytes.set b p (if v then '\001' else '\000'));
           bk_read =
             (fun b p ->
               match Bytes.get b p with
               | '\000' -> false
               | '\001' -> true
               | c ->
                   raise
                     (Wire.Decode_error
                        { what = "bool must be 0 or 1"; got = Char.code c }));
         })

(* ------------------------------------------------------------------ *)
(* Derived-type constructors *)

(* Internal constructor: derived type with an explicit (optional) bulk
   kernel.  The public [create] takes opaque pack/unpack closures, about
   which nothing can be assumed, so it always gets the general path. *)
let create_k ~name ~size ~signature ~pack ~unpack ~bulk =
  if size < 0 then invalid_arg "Datatype.create: negative size";
  {
    name;
    kind = Derived;
    elem_size = size;
    signature;
    pack;
    unpack;
    bulk;
    state = { committed = false; freed = false };
    id = Type.Id.make ();
  }

(* Fully custom ("dynamic", §III-D2): the caller supplies everything, with
   sizes possibly known only at runtime. *)
let create ~name ~size ~signature ~pack ~unpack =
  create_k ~name ~size ~signature ~pack ~unpack ~bulk:None

let contiguous ~count (base : 'a t) : 'a array t =
  if count < 0 then invalid_arg "Datatype.contiguous: negative count";
  let name = Printf.sprintf "contiguous(%d,%s)" count base.name in
  let length_check (a : 'a array) =
    if Array.length a <> count then
      invalid_arg
        (Printf.sprintf "%s: expected %d elements, got %d" name count (Array.length a))
  in
  let pack w (a : 'a array) =
    length_check a;
    for i = 0 to count - 1 do
      base.pack w (Array.unsafe_get a i)
    done
  in
  let unpack r = Array.init count (fun _ -> base.unpack r) in
  (* A fixed run of a bulk-capable base is itself bulk-capable: the block
     kernel runs the base's loop, typed for flat builtins. *)
  let bulk =
    match base.bulk with
    | None -> None
    | Some k ->
        let sz = base.elem_size in
        Some
          (K_fn
             {
               bk_write =
                 (fun buf off (a : 'a array) ->
                   length_check a;
                   write_run k ~sz buf off a ~pos:0 ~count);
               bk_read = (fun buf off -> read_run k ~sz buf off ~count);
             })
  in
  create_k ~name ~size:(count * base.elem_size)
    ~signature:(Signature.repeat base.signature count)
    ~pack ~unpack ~bulk

let pair (a : 'a t) (b : 'b t) : ('a * 'b) t =
  let name = Printf.sprintf "pair(%s,%s)" a.name b.name in
  let bulk =
    match (a.bulk, b.bulk) with
    | Some ka, Some kb ->
        let sza = a.elem_size in
        Some
          (K_fn
             {
               bk_write =
                 (fun buf pos (x, y) ->
                   kwrite ka buf pos x;
                   kwrite kb buf (pos + sza) y);
               bk_read = (fun buf pos -> (kread ka buf pos, kread kb buf (pos + sza)));
             })
    | _ -> None
  in
  create_k ~name ~size:(a.elem_size + b.elem_size)
    ~signature:(Signature.append a.signature b.signature)
    ~pack:(fun w (x, y) ->
      a.pack w x;
      b.pack w y)
    ~unpack:(fun r ->
      let x = a.unpack r in
      let y = b.unpack r in
      (x, y))
    ~bulk

(* Fixed-size option: a presence byte plus space for the payload either way,
   so that elements stay fixed-size (absent payloads are zero padding). *)
let option_ (base : 'a t) : 'a option t =
  let name = Printf.sprintf "option(%s)" base.name in
  create ~name
    ~size:(1 + base.elem_size)
    ~signature:(Signature.append (Signature.of_base Signature.Bool)
                  (Signature.of_base ~count:base.elem_size Signature.Blob))
    ~pack:(fun w v ->
      match v with
      | None ->
          Wire.put_bool w false;
          Wire.put_padding w base.elem_size
      | Some x ->
          Wire.put_bool w true;
          let before = Wire.length w in
          base.pack w x;
          let written = Wire.length w - before in
          if written <> base.elem_size then
            invalid_arg (name ^ ": payload size mismatch");
          ())
    ~unpack:(fun r ->
      if Wire.get_bool r then Some (base.unpack r)
      else begin
        Wire.skip r base.elem_size;
        None
      end)

(* ------------------------------------------------------------------ *)
(* Struct types from field lists (the PFR/struct_type analogue) *)

type ('r, 'a) field = {
  fname : string;
  ftype : 'a t;
  fget : 'r -> 'a;
  fpad_after : int;  (* alignment gap after this field *)
}

let field ?(pad_after = 0) fname ftype fget =
  if pad_after < 0 then invalid_arg "Datatype.field: negative padding";
  { fname; ftype; fget; fpad_after = pad_after }

(* The fields of a struct in wire order.  ['k] is the type of the
   constructor that rebuilds the struct from their values
   (['a -> 'b -> ... -> 'r]), so a list whose fields do not line up with
   [make] does not type-check. *)
type ('r, 'k) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) field * ('r, 'k) fields -> ('r, 'a -> 'k) fields

(* One builder for both layouts.  Without [gaps] this is the gap-skipping
   struct of MPI_Type_create_struct: field by field, padding left off the
   wire.  With [gaps] every field's [pad_after] is shipped as
   zero bytes in the same pass, the trivially-copyable "contiguous bytes"
   default of §III-D4; the wire size then includes the padding and the
   signature is Blob, so it matches any equally-sized blob. *)
let struct_type (type r k) ~gaps name (fields : (r, k) fields) (make : k) : r t =
  let pad f = if gaps then f.fpad_after else 0 in
  let rec size : type k. (r, k) fields -> int = function
    | [] -> 0
    | f :: rest -> f.ftype.elem_size + pad f + size rest
  in
  let rec signature : type k. (r, k) fields -> Signature.t = function
    | [] -> Signature.empty
    | f :: rest -> Signature.append f.ftype.signature (signature rest)
  in
  (* Each walks the list once, at construction, into a chain of
     per-field closures. *)
  let rec pack : type k. (r, k) fields -> Wire.writer -> r -> unit = function
    | [] -> fun _ _ -> ()
    | f :: rest ->
        let next = pack rest and p = pad f in
        fun w v ->
          f.ftype.pack w (f.fget v);
          if p > 0 then Wire.put_padding w p;
          next w v
  in
  let rec unpack : type k. (r, k) fields -> Wire.reader -> k -> r = function
    | [] -> fun _ make -> make
    | f :: rest ->
        let next = unpack rest and p = pad f in
        fun rd make ->
          let x = f.ftype.unpack rd in
          if p > 0 then Wire.skip rd p;
          next rd (make x)
  in
  let size = size fields and unpack = unpack fields in
  create ~name ~size
    ~signature:
      (if gaps then Signature.of_base ~count:size Signature.Blob else signature fields)
    ~pack:(pack fields)
    ~unpack:(fun rd -> unpack rd make)

let record name fields make = struct_type ~gaps:false name fields make

let record_with_gaps name fields make = struct_type ~gaps:true name fields make

let triple (a : 'a t) (b : 'b t) (c : 'c t) : ('a * 'b * 'c) t =
  record
    (Printf.sprintf "triple(%s,%s,%s)" a.name b.name c.name)
    [
      field "0" a (fun (x, _, _) -> x);
      field "1" b (fun (_, y, _) -> y);
      field "2" c (fun (_, _, z) -> z);
    ]
    (fun x y z -> (x, y, z))

(* Opaque contiguous byte block for trivially-copyable values: a single bulk
   write/read per element.  [write buf pos v] must fill exactly [size]
   bytes at [pos]; [read buf pos] must read exactly [size] bytes. *)
let blob ~name ~size ~(write : Bytes.t -> int -> 'a -> unit) ~(read : Bytes.t -> int -> 'a) :
    'a t =
  if size <= 0 then invalid_arg "Datatype.blob: size must be positive";
  (* Single-pass, zero-copy: the value is written directly into (and read
     directly from) the wire buffer. *)
  let pack w v =
    let pos = Wire.reserve_offset w size in
    write (Wire.writer_storage w) pos v
  in
  let unpack r =
    let pos = Wire.read_offset r size in
    read (Wire.reader_storage r) pos
  in
  create_k ~name ~size
    ~signature:(Signature.of_base ~count:size Signature.Blob)
    ~pack ~unpack
    ~bulk:(Some (K_fn { bk_write = write; bk_read = read }))

(* ------------------------------------------------------------------ *)
(* Array pack/unpack helpers used by the runtime *)

(* Each helper dispatches ONCE on the type's kernel: the fast path does a
   single [Wire.reserve_offset]/[read_offset] for the whole run and a
   typed or per-kernel loop over it; the general path keeps per-element
   closure calls (derived/struct types, dynamic sizes).  Ranges are
   checked in a form that cannot overflow, since the loops below them are
   unchecked. *)

let pack_array (t : 'a t) (w : Wire.writer) (a : 'a array) ~pos ~count =
  if pos < 0 || count < 0 || pos > Array.length a - count then
    invalid_arg "Datatype.pack_array: range out of bounds";
  match t.bulk with
  | Some k ->
      let sz = t.elem_size in
      let off = Wire.reserve_offset w (count * sz) in
      write_run k ~sz (Wire.writer_storage w) off a ~pos ~count
  | None ->
      for i = pos to pos + count - 1 do
        t.pack w (Array.unsafe_get a i)
      done

(* A count the reader cannot hold at [elem_size] bytes per element (the
   least an element occupies) raises [Wire.Underflow] before
   [count * elem_size] is formed, so a hostile count can neither wrap the
   product nor reach an allocation.  The reader is left untouched. *)
let check_fits (t : 'a t) ~available ~count =
  let sz = t.elem_size in
  if sz > 0 && count > available / sz then
    raise
      (Wire.Underflow
         { wanted = (if count > max_int / sz then max_int else count * sz); available })

let check_count (t : 'a t) (r : Wire.reader) ~count =
  check_fits t ~available:(Wire.remaining r) ~count

(* Claim the bytes of a [count]-element run from [r]; returns their offset
   in [Wire.reader_storage r]. *)
let read_run_bytes (t : 'a t) (r : Wire.reader) ~count =
  check_count t r ~count;
  Wire.read_offset r (count * t.elem_size)

let unpack_array (t : 'a t) (r : Wire.reader) ~count : 'a array =
  if count < 0 then invalid_arg "Datatype.unpack_array: negative count";
  match t.bulk with
  | Some k ->
      let off = read_run_bytes t r ~count in
      read_run k ~sz:t.elem_size (Wire.reader_storage r) off ~count
  | None ->
      check_count t r ~count;
      Array.init count (fun _ -> t.unpack r)

let unpack_into (t : 'a t) (r : Wire.reader) (dst : 'a array) ~pos ~count =
  if pos < 0 || count < 0 || pos > Array.length dst - count then
    invalid_arg "Datatype.unpack_into: range out of bounds";
  match t.bulk with
  | Some k ->
      let off = read_run_bytes t r ~count in
      read_run_into k ~sz:t.elem_size (Wire.reader_storage r) off dst ~pos ~count
  | None ->
      for i = pos to pos + count - 1 do
        Array.unsafe_set dst i (t.unpack r)
      done

(* The same over the [len] bytes of [b] from [off], e.g. a message's
   payload slice: the fast path reads the run in place, so no reader is
   built; the general path reads through one. *)
let check_slice ~op (b : Bytes.t) ~off ~len =
  if off < 0 || len < 0 || len > Bytes.length b - off then invalid_arg (op ^ ": bad slice")

let unpack_slice_array (t : 'a t) (b : Bytes.t) ~off ~len ~count : 'a array =
  if count < 0 then invalid_arg "Datatype.unpack_array: negative count";
  check_slice ~op:"Datatype.unpack_slice_array" b ~off ~len;
  match t.bulk with
  | Some k ->
      check_fits t ~available:len ~count;
      read_run k ~sz:t.elem_size b off ~count
  | None -> unpack_array t (Wire.reader_of_slice b ~pos:off ~len) ~count

let unpack_slice_into (t : 'a t) (b : Bytes.t) ~off ~len (dst : 'a array) ~pos ~count =
  if pos < 0 || count < 0 || pos > Array.length dst - count then
    invalid_arg "Datatype.unpack_into: range out of bounds";
  check_slice ~op:"Datatype.unpack_slice_into" b ~off ~len;
  match t.bulk with
  | Some k ->
      check_fits t ~available:len ~count;
      read_run_into k ~sz:t.elem_size b off dst ~pos ~count
  | None -> unpack_into t (Wire.reader_of_slice b ~pos:off ~len) dst ~pos ~count

(* Whether the type has a bulk kernel (i.e. takes the fast path). *)
let bulk_available t = Option.is_some t.bulk

(* The same type with its kernel stripped: forced onto the general path.
   Benchmarks and the fast≡general equivalence property use this as the
   "before" side; it shares the original's commit state. *)
let without_bulk (t : 'a t) : 'a t = { t with bulk = None }

(* Scoped commit: commit [t] if needed, run [f t], and free [t] again if
   we were the ones to commit it.  This is how the binding layer manages
   derived types transparently (Construct-On-First-Use with guaranteed
   cleanup, §III-D1) while the raw layer keeps MPI's manual discipline. *)
let with_committed (t : 'a t) (f : 'a t -> 'b) : 'b =
  if t.kind = Builtin || is_committed t then f t
  else begin
    commit t;
    Fun.protect ~finally:(fun () -> free t) (fun () -> f t)
  end

(* A placeholder element decoded from zero bytes; used to seed freshly
   allocated receive arrays when the receiver holds no local element of the
   type.  All combinators in this module decode zero bytes successfully. *)
let zero_elem (t : 'a t) : 'a =
  let w = Wire.create_writer ~capacity:(Stdlib.max 1 t.elem_size) () in
  Wire.put_padding w t.elem_size;
  t.unpack (Wire.reader_of_bytes (Wire.contents w))

let size_of_count (t : 'a t) n = t.elem_size * n

let signature_of_count (t : 'a t) n = Signature.repeat t.signature n

let name t = t.name

let elem_size t = t.elem_size
