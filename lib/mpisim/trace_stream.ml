(* Streaming trace sink: length-prefixed binary records on a channel.

   The ring-buffer sink (Trace) caps memory per rank but at 10^5..10^6
   ranks the rings themselves dominate memory and overflow silently
   truncates history.  This sink instead appends every event to a file as
   it is emitted: an idle rank costs nothing beyond its per-rank sequence
   counter (O(1) memory), and nothing is ever dropped.

   Wire format (all little-endian):

     header   "MPTS", u8 version (1), i32 nranks
     record   u8 tag, i32 payload length, payload

     tag 1    string definition: i32 id, bytes (the string)
     tag 2    event: i32 rank, i32 per-rank seq, u8 kind,
              i32 cat id, i32 name id, f64 ts, f64 dur,
              i64 a, i64 b, i64 c, i64 d
   Tag 3 (per-event vector clocks) was written by older versions and is
   no longer produced: the happens-before analyzer now derives the clocks
   from the send and match events themselves.  Old files stay readable —
   their tag-3 records are skipped by length like any unknown tag.

   Category and name strings are interned: the first occurrence writes a
   tag-1 record, later events refer to the id.  The per-rank sequence
   numbers let any reader prove completeness (they must be contiguous
   from zero); the length prefix lets readers skip unknown tags.

   The reader treats the file as untrusted: a rank count above
   [max_ranks], or a record length larger than the bytes left in the
   file, is rejected before anything of that size is allocated.

   The writer batches into a bounded scratch buffer (one syscall per
   [flush_threshold] bytes rather than per event), so its memory is a
   constant independent of run length and rank count. *)

(* The event record of every sink and reader.  The emitting rank travels
   beside it, so a ring slot costs no more than the event. *)
type kind = Begin | End | Instant | Complete

type event = {
  kind : kind;
  cat : string;  (* layer: "sched" | "sim" | "coll" | "p2p" | "kamping" | "timer" *)
  name : string;
  ts : float;  (* virtual time; for [Complete], the span's *end* *)
  dur : float;  (* span length, [Complete] only *)
  a : int;  (* event-specific args, -1 when unused: *)
  b : int;  (* send: a=dst b=seq c=bytes; match: a=src b=seq c=bytes *)
  c : int;
  d : int;  (* the emitting rank's Lamport clock on send/match instants *)
}

let magic = "MPTS"

let version = 1

let flush_threshold = 64 * 1024

(* Largest rank count a stream may declare (2^20): above the 10^6 ranks
   the sink is built for, and small enough that the reader's per-rank
   state stays a few MiB however the header is corrupted. *)
let max_ranks = 1 lsl 20

type t = {
  oc : out_channel;
  buf : Buffer.t;
  scratch : Bytes.t;  (* fixed-size staging area for one event record *)
  intern : (string, int) Hashtbl.t;
  mutable next_id : int;
  seqs : int array;  (* per-rank event sequence numbers *)
  mutable events : int;
  mutable closed : bool;
}

(* rank + seq + cat id + name id (i32), kind (u8), ts + dur (f64),
   a..d (i64). *)
let event_payload_len = (4 * 4) + 1 + (2 * 8) + (4 * 8)

let flush t =
  Buffer.output_buffer t.oc t.buf;
  Buffer.clear t.buf

let create ~path ~ranks =
  if ranks <= 0 || ranks > max_ranks then
    invalid_arg
      (Printf.sprintf "Trace_stream.create: %d ranks (want 1..%d)" ranks max_ranks);
  let oc = open_out_bin path in
  let buf = Buffer.create (flush_threshold + 256) in
  Buffer.add_string buf magic;
  Buffer.add_uint8 buf version;
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int ranks);
  Buffer.add_bytes buf hdr;
  {
    oc;
    buf;
    scratch = Bytes.create event_payload_len;
    intern = Hashtbl.create 64;
    next_id = 0;
    seqs = Array.make ranks 0;
    events = 0;
    closed = false;
  }

let events_written t = t.events

let add_record t tag payload_len add_payload =
  Buffer.add_uint8 t.buf tag;
  let len = Bytes.create 4 in
  Bytes.set_int32_le len 0 (Int32.of_int payload_len);
  Buffer.add_bytes t.buf len;
  add_payload ();
  if Buffer.length t.buf >= flush_threshold then flush t

let intern t s =
  match Hashtbl.find_opt t.intern s with
  | Some id -> id
  | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.intern s id;
      add_record t 1
        (4 + String.length s)
        (fun () ->
          let b = Bytes.create 4 in
          Bytes.set_int32_le b 0 (Int32.of_int id);
          Buffer.add_bytes t.buf b;
          Buffer.add_string t.buf s);
      id

let kind_code = function Begin -> 0 | End -> 1 | Instant -> 2 | Complete -> 3

let kind_of_code = function
  | 0 -> Some Begin
  | 1 -> Some End
  | 2 -> Some Instant
  | 3 -> Some Complete
  | _ -> None

let write_event t ~rank e =
  if t.closed then invalid_arg "Trace_stream.write_event: writer is closed";
  let cat_id = intern t e.cat in
  let name_id = intern t e.name in
  let sq = t.seqs.(rank) in
  t.seqs.(rank) <- sq + 1;
  t.events <- t.events + 1;
  let s = t.scratch in
  Bytes.set_int32_le s 0 (Int32.of_int rank);
  Bytes.set_int32_le s 4 (Int32.of_int sq);
  Bytes.set_uint8 s 8 (kind_code e.kind);
  Bytes.set_int32_le s 9 (Int32.of_int cat_id);
  Bytes.set_int32_le s 13 (Int32.of_int name_id);
  Bytes.set_int64_le s 17 (Int64.bits_of_float e.ts);
  Bytes.set_int64_le s 25 (Int64.bits_of_float e.dur);
  Bytes.set_int64_le s 33 (Int64.of_int e.a);
  Bytes.set_int64_le s 41 (Int64.of_int e.b);
  Bytes.set_int64_le s 49 (Int64.of_int e.c);
  Bytes.set_int64_le s 57 (Int64.of_int e.d);
  add_record t 2 event_payload_len (fun () -> Buffer.add_bytes t.buf s)

let close t =
  if not t.closed then begin
    t.closed <- true;
    flush t;
    close_out t.oc
  end

(* ------------------------------------------------------------------ *)
(* Reader *)

type summary = { s_ranks : int; s_events : int }

let read_i32 b off = Int32.to_int (Bytes.get_int32_le b off)

(* Stream the records of [path] through [f] (with each event's rank),
   validating as we go: magic and version, string ids defined before use,
   and — the completeness proof — per-rank sequence numbers contiguous
   from zero.  [on_header]
   fires once, before the first event, with the rank count.  Sizes read
   from the file are checked against [max_ranks] and the file length
   before they reach an allocation. *)
let fold_file ?(on_header = fun (_ : int) -> ()) path ~init ~f =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      let fail fmt = Printf.ksprintf failwith fmt in
      try
        let result =
          let hdr = Bytes.create 9 in
          (try really_input ic hdr 0 9
           with End_of_file -> fail "truncated header (%s)" path);
          if Bytes.sub_string hdr 0 4 <> magic then fail "bad magic: not a trace stream";
          let v = Bytes.get_uint8 hdr 4 in
          if v <> version then fail "unsupported trace-stream version %d" v;
          let nranks = read_i32 hdr 5 in
          if nranks <= 0 || nranks > max_ranks then
            fail "bad rank count %d (want 1..%d)" nranks max_ranks;
          (* Not every channel has a length (pipes); those skip the
             record-length check and fail on the short read instead. *)
          let file_len = try in_channel_length ic with Sys_error _ -> max_int in
          on_header nranks;
          let strings : (int, string) Hashtbl.t = Hashtbl.create 64 in
          let expect = Array.make nranks 0 in
          let events = ref 0 in
          let acc = ref init in
          let frame = Bytes.create 5 in
          let rec loop () =
            let left = file_len - pos_in ic in
            if left > 0 && left < 5 then fail "truncated record header (%d bytes)" left;
            match really_input ic frame 0 5 with
            | exception End_of_file -> ()
            | () ->
                let tag = Bytes.get_uint8 frame 0 in
                let len = read_i32 frame 1 in
                if len < 0 then fail "negative record length";
                if len > file_len - pos_in ic then
                  fail "record length %d exceeds the %d bytes left (tag %d)" len
                    (file_len - pos_in ic) tag;
                let payload = Bytes.create len in
                (try really_input ic payload 0 len
                 with End_of_file -> fail "truncated record (tag %d)" tag);
                (match tag with
                | 1 ->
                    if len < 4 then fail "short string record";
                    let id = read_i32 payload 0 in
                    Hashtbl.replace strings id (Bytes.sub_string payload 4 (len - 4))
                | 2 ->
                    if len < event_payload_len then fail "short event record";
                    let rank = read_i32 payload 0 in
                    if rank < 0 || rank >= nranks then
                      fail "event rank %d out of range" rank;
                    let sq = read_i32 payload 4 in
                    if sq <> expect.(rank) then
                      fail "rank %d: event seq %d, expected %d (dropped or reordered)"
                        rank sq expect.(rank);
                    expect.(rank) <- sq + 1;
                    let kind =
                      match kind_of_code (Bytes.get_uint8 payload 8) with
                      | Some k -> k
                      | None -> fail "unknown event kind"
                    in
                    let str off =
                      let id = read_i32 payload off in
                      match Hashtbl.find_opt strings id with
                      | Some s -> s
                      | None -> fail "undefined string id %d" id
                    in
                    let i64 off = Int64.to_int (Bytes.get_int64_le payload off) in
                    incr events;
                    acc :=
                      f !acc rank
                        {
                          kind;
                          cat = str 9;
                          name = str 13;
                          ts = Int64.float_of_bits (Bytes.get_int64_le payload 17);
                          dur = Int64.float_of_bits (Bytes.get_int64_le payload 25);
                          a = i64 33;
                          b = i64 41;
                          c = i64 49;
                          d = i64 57;
                        }
                | _ ->
                    (* Unknown tag (including the retired tag-3 vector
                       clocks): the length prefix told us how much to skip. *)
                    ());
                loop ()
          in
          loop ();
          (!acc, { s_ranks = nranks; s_events = !events })
        in
        close_in ic;
        Ok result
      with
      | Failure msg ->
          close_in_noerr ic;
          Error msg
      | exn ->
          close_in_noerr ic;
          raise exn)
