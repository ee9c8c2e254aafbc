(* Byte-level wire format.

   Every simulated message is really packed into bytes through its datatype
   descriptor and unpacked at the receiver, so datatype layout decisions
   (paper §III-D) have genuine CPU and byte-volume consequences.

   All integers are little-endian.  [writer] is a growable buffer; [reader]
   is a bounds-checked cursor over immutable bytes. *)

exception Underflow of { wanted : int; available : int }

(* A syntactically invalid encoding (e.g. a boolean byte that is neither 0
   nor 1).  Like [Underflow], this is a wire-decode error — corrupt or
   mistyped input — not a programming error at the call site, so it gets
   its own exception rather than [Invalid_argument]. *)
exception Decode_error of { what : string; got : int }

let () =
  Printexc.register_printer (function
    | Underflow { wanted; available } ->
        Some (Printf.sprintf "Wire.Underflow: wanted %d bytes, %d available" wanted available)
    | Decode_error { what; got } ->
        Some (Printf.sprintf "Wire.Decode_error: %s (byte %d)" what got)
    | _ -> None)

type writer = { mutable buf : Bytes.t; mutable len : int }

let create_writer ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Wire.create_writer: capacity < 1";
  { buf = Bytes.create capacity; len = 0 }

let length w = w.len

let ensure w extra =
  let needed = w.len + extra in
  if needed > Bytes.length w.buf then begin
    let cap = ref (Bytes.length w.buf * 2) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit w.buf 0 nb 0 w.len;
    w.buf <- nb
  end

let put_char w c =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let put_uint8 w i =
  if i < 0 || i > 255 then invalid_arg "Wire.put_uint8";
  put_char w (Char.unsafe_chr i)

let put_int64 w (v : int64) =
  ensure w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let put_int w (v : int) = put_int64 w (Int64.of_int v)

let put_int32 w (v : int32) =
  ensure w 4;
  Bytes.set_int32_le w.buf w.len v;
  w.len <- w.len + 4

let put_float w (v : float) = put_int64 w (Int64.bits_of_float v)

let put_float32 w (v : float) = put_int32 w (Int32.bits_of_float v)

let put_bool w b = put_uint8 w (if b then 1 else 0)

let put_bytes w (b : Bytes.t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Wire.put_bytes";
  ensure w len;
  Bytes.blit b pos w.buf w.len len;
  w.len <- w.len + len

let put_string w (s : string) =
  let len = String.length s in
  ensure w len;
  Bytes.blit_string s 0 w.buf w.len len;
  w.len <- w.len + len

(* Pad with [n] zero bytes (used to model alignment gaps, §III-D4). *)
let put_padding w n =
  if n < 0 then invalid_arg "Wire.put_padding";
  ensure w n;
  Bytes.fill w.buf w.len n '\000';
  w.len <- w.len + n

(* Reserve [len] bytes for in-place writing and return their offset in
   [writer_storage w] — the single-bulk-copy path for trivially-copyable
   types.  Returning the offset alone keeps the call allocation-free. *)
let reserve_offset w len =
  if len < 0 then invalid_arg "Wire.reserve_offset";
  ensure w len;
  let pos = w.len in
  w.len <- pos + len;
  pos

let writer_storage w = w.buf

let contents w = Bytes.sub w.buf 0 w.len

(* Hand out the underlying storage without copying; only valid as long as
   the writer is not reused.  The runtime uses this to avoid double copies
   when injecting messages. *)
let unsafe_contents w = (w.buf, w.len)

let reset w = w.len <- 0

type reader = { data : Bytes.t; limit : int; mutable pos : int }

let reader_of_bytes ?(pos = 0) ?len (data : Bytes.t) =
  let limit =
    match len with None -> Bytes.length data | Some l -> pos + l
  in
  if pos < 0 || limit > Bytes.length data || pos > limit then
    invalid_arg "Wire.reader_of_bytes";
  { data; limit; pos }

(* [reader_of_bytes ~pos ~len] without the optional-argument boxes: the
   per-message receive path reads every payload through one of these. *)
let reader_of_slice (data : Bytes.t) ~pos ~len =
  if pos < 0 || len < 0 || len > Bytes.length data - pos then
    invalid_arg "Wire.reader_of_slice";
  { data; limit = pos + len; pos }

let remaining r = r.limit - r.pos

(* Written as a difference so that a huge [n] cannot wrap the sum. *)
let check r n =
  if n > r.limit - r.pos then raise (Underflow { wanted = n; available = remaining r })

let get_char r =
  check r 1;
  let c = Bytes.unsafe_get r.data r.pos in
  r.pos <- r.pos + 1;
  c

let get_uint8 r = Char.code (get_char r)

let get_int64 r =
  check r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let get_int r = Int64.to_int (get_int64 r)

let get_int32 r =
  check r 4;
  let v = Bytes.get_int32_le r.data r.pos in
  r.pos <- r.pos + 4;
  v

let get_float r = Int64.float_of_bits (get_int64 r)

let get_float32 r = Int32.float_of_bits (get_int32 r)

let get_bool r =
  match get_uint8 r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Decode_error { what = "bool must be 0 or 1"; got = n })

let get_bytes r len =
  check r len;
  let b = Bytes.sub r.data r.pos len in
  r.pos <- r.pos + len;
  b

let get_string r len =
  check r len;
  let s = Bytes.sub_string r.data r.pos len in
  r.pos <- r.pos + len;
  s

let skip r n =
  if n < 0 then invalid_arg "Wire.skip";
  check r n;
  r.pos <- r.pos + n

(* Zero-copy read access: returns the offset of the next [len] bytes in
   [reader_storage r] and advances the cursor.  The storage must not be
   mutated. *)
let read_offset r len =
  if len < 0 then invalid_arg "Wire.read_offset";
  check r len;
  let pos = r.pos in
  r.pos <- pos + len;
  pos

let reader_storage r = r.data

(* ------------------------------------------------------------------ *)
(* Writer-storage pool.

   The runtime keeps one pool per rank: a send packs into a pooled buffer,
   [unsafe_contents] transfers the storage into the injected message
   without a copy, and the consumer returns it with [recycle] once the
   payload has been unpacked.  Ownership rule: between acquire and recycle
   the storage belongs to exactly one message; after recycle any slice of
   it is dead.

   The pool is bounded both in buffer count and in retained buffer size so
   a single huge transfer cannot pin memory for the rest of the run.

   A pool belongs to one run, and a run executes on one domain, so the
   free list takes no lock.

   The free list is a fixed array of [max_buffers] slots, the live ones
   first and in no order, and [caps] holds each live buffer's length in
   the same slot, so a scan reads one int array and touches no buffer.
   An acquire takes the buffer that fits with the least to spare, and a
   full pool keeps its larger buffers: a message the size of an earlier
   one finds storage it does not have to grow, and no acquire hands out
   storage too small for the capacity it names.  The pool owns the one
   writer record it hands out, refilled on every acquire: a hit and a
   recycle allocate nothing at all. *)

type pool = {
  free : Bytes.t array;  (* slots [0, n_free) are live *)
  caps : int array;  (* [Bytes.length free.(i)] of each live slot *)
  mutable n_free : int;
  max_buffers : int;
  max_retain : int;  (* buffers larger than this are dropped on recycle *)
  mutable hits : int;  (* acquires served from the free list *)
  mutable misses : int;  (* acquires that had to allocate *)
  writer : writer;  (* handed out by every acquire *)
}

let create_pool ?(max_buffers = 8) ?(max_retain = 1 lsl 24) () =
  if max_buffers < 0 || max_retain < 1 then invalid_arg "Wire.create_pool";
  (* One slot even when [max_buffers = 0]: [preheat] may still park a
     buffer for the next acquire. *)
  let slots = Int.max 1 max_buffers in
  {
    free = Array.make slots Bytes.empty;
    caps = Array.make slots 0;
    n_free = 0;
    max_buffers;
    max_retain;
    hits = 0;
    misses = 0;
    writer = { buf = Bytes.empty; len = 0 };
  }

(* The live slot of the smallest buffer of at least [capacity] bytes, or
   -1 if none is that large. *)
let[@inline] fitting pool ~capacity =
  let caps = pool.caps in
  let best = ref (-1) and best_len = ref max_int in
  for i = 0 to pool.n_free - 1 do
    let len = Array.unsafe_get caps i in
    if len >= capacity && len < !best_len then begin
      best := i;
      best_len := len
    end
  done;
  !best

(* The live slot of the smallest buffer; the pool is not empty. *)
let smallest pool =
  let caps = pool.caps in
  let best = ref 0 in
  for i = 1 to pool.n_free - 1 do
    if Array.unsafe_get caps i < Array.unsafe_get caps !best then best := i
  done;
  !best

let[@inline] put_slot pool i b =
  pool.free.(i) <- b;
  pool.caps.(i) <- Bytes.length b

(* The pool's writer over the smallest pooled buffer that holds
   [capacity] bytes, or over a new one of that size when none does:
   taking a smaller buffer would grow it, which allocates a larger one
   still and drops the pooled one.  A capacity that is only a least
   size (a [framed] type's) may still grow the writer. *)
let acquire pool ~capacity =
  let capacity = Int.max 1 capacity in
  let i = fitting pool ~capacity in
  let b =
    if i >= 0 then begin
      let b = pool.free.(i) and last = pool.n_free - 1 in
      (* The last live slot fills the one taken. *)
      if i < last then begin
        pool.free.(i) <- pool.free.(last);
        pool.caps.(i) <- pool.caps.(last)
      end;
      pool.free.(last) <- Bytes.empty;
      pool.n_free <- last;
      pool.hits <- pool.hits + 1;
      b
    end
    else begin
      pool.misses <- pool.misses + 1;
      Bytes.create capacity
    end
  in
  let w = pool.writer in
  w.buf <- b;
  w.len <- 0;
  w

(* A full pool keeps the larger buffers: [b] replaces the smallest pooled
   one if it is larger, and is dropped otherwise. *)
let recycle pool (b : Bytes.t) =
  let len = Bytes.length b in
  if len <= pool.max_retain then
    if pool.n_free < pool.max_buffers then begin
      put_slot pool pool.n_free b;
      pool.n_free <- pool.n_free + 1
    end
    else if pool.max_buffers > 0 then begin
      let i = smallest pool in
      if pool.caps.(i) < len then put_slot pool i b
    end

(* Pre-warm the pool so that the next [acquire] asking for at most
   [capacity] bytes is a hit whose buffer holds what it asked for:
   [acquire] takes a pooled buffer that fits whenever there is one.  If
   one is pooled already nothing happens; otherwise a buffer of
   [capacity] bytes joins the pool, replacing the smallest in a full one.
   Persistent requests call this at init so the per-cycle pack never
   grows a writer. *)
let preheat pool ~capacity =
  let capacity = Int.max 1 (Int.min capacity pool.max_retain) in
  let n = pool.n_free in
  if fitting pool ~capacity >= 0 then ()
  else if n < Array.length pool.free then begin
    put_slot pool n (Bytes.create capacity);
    pool.n_free <- n + 1
  end
  else put_slot pool (smallest pool) (Bytes.create capacity)

let pool_stats pool = (pool.hits, pool.misses, pool.n_free)

let pooled pool = List.init pool.n_free (fun i -> (pool.caps.(i), pool.free.(i)))

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
   slice.  The chaos plane's reliable-delivery layer frames every payload
   with this checksum so bit corruption is detected at the receiver
   instead of silently unpacking garbage.  The table is built at module
   initialisation and only read, so runs on several domains share it. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let crc32 (b : Bytes.t) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Wire.crc32";
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
