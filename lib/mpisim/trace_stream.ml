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
  (* The sink is one shared buffer + channel: under the multicore
     scheduler several domains emit concurrently, so every record write
     serializes on this lock.  Uncontended (sequential runs) it is a
     couple of atomic ops per event. *)
  lock : Mutex.t;
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
    lock = Mutex.create ();
  }

let[@inline] locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let events_written t = t.events

let seq t rank = t.seqs.(rank)

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

let kind_code : Trace_chrome.kind -> int = function
  | Trace_chrome.Begin -> 0
  | Trace_chrome.End -> 1
  | Trace_chrome.Instant -> 2
  | Trace_chrome.Complete -> 3

let kind_of_code = function
  | 0 -> Some Trace_chrome.Begin
  | 1 -> Some Trace_chrome.End
  | 2 -> Some Trace_chrome.Instant
  | 3 -> Some Trace_chrome.Complete
  | _ -> None

let write_event t ~rank ~kind ~cat ~name ~ts ~dur ~a ~b ~c ~d =
  locked t @@ fun () ->
  if t.closed then invalid_arg "Trace_stream.write_event: writer is closed";
  let cat_id = intern t cat in
  let name_id = intern t name in
  let sq = t.seqs.(rank) in
  t.seqs.(rank) <- sq + 1;
  t.events <- t.events + 1;
  let s = t.scratch in
  Bytes.set_int32_le s 0 (Int32.of_int rank);
  Bytes.set_int32_le s 4 (Int32.of_int sq);
  Bytes.set_uint8 s 8 (kind_code kind);
  Bytes.set_int32_le s 9 (Int32.of_int cat_id);
  Bytes.set_int32_le s 13 (Int32.of_int name_id);
  Bytes.set_int64_le s 17 (Int64.bits_of_float ts);
  Bytes.set_int64_le s 25 (Int64.bits_of_float dur);
  Bytes.set_int64_le s 33 (Int64.of_int a);
  Bytes.set_int64_le s 41 (Int64.of_int b);
  Bytes.set_int64_le s 49 (Int64.of_int c);
  Bytes.set_int64_le s 57 (Int64.of_int d);
  add_record t 2 event_payload_len (fun () -> Buffer.add_bytes t.buf s)

let close t =
  locked t @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    flush t;
    close_out t.oc
  end

(* ------------------------------------------------------------------ *)
(* Reader *)

type event = {
  ev_rank : int;
  ev_seq : int;
  ev_kind : Trace_chrome.kind;
  ev_cat : string;
  ev_name : string;
  ev_ts : float;
  ev_dur : float;
  ev_a : int;
  ev_b : int;
  ev_c : int;
  ev_d : int;
}

type summary = { s_ranks : int; s_events : int }

let read_i32 b off = Int32.to_int (Bytes.get_int32_le b off)

(* Stream the records of [path] through [f], validating as we go: magic
   and version, string ids defined before use, and — the completeness
   proof — per-rank sequence numbers contiguous from zero.  [on_header]
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
                      f !acc
                        {
                          ev_rank = rank;
                          ev_seq = sq;
                          ev_kind = kind;
                          ev_cat = str 9;
                          ev_name = str 13;
                          ev_ts = Int64.float_of_bits (Bytes.get_int64_le payload 17);
                          ev_dur = Int64.float_of_bits (Bytes.get_int64_le payload 25);
                          ev_a = i64 33;
                          ev_b = i64 41;
                          ev_c = i64 49;
                          ev_d = i64 57;
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

(* Offline converter: stream file -> Chrome trace-event JSON, using the
   same rendering rules (flow arrows, zero-duration clamping, per-rank
   CPU tracks) as the in-memory exporter, in bounded memory: the output
   buffer drains to [dst] every [flush_threshold] bytes. *)
let convert_to_chrome ~src ~dst =
  match open_out dst with
  | exception Sys_error msg -> Error msg
  | oc ->
      let buf = Buffer.create (flush_threshold + 4096) in
      (* (root, traceEvents array, nranks), built once the header is read. *)
      let ctx = ref None in
      let fold_result =
        fold_file src
          ~on_header:(fun nranks ->
            let root = Json_out.start_obj buf in
            Json_out.field_str root "displayTimeUnit" "ms";
            Json_out.key root "otherData";
            let od = Json_out.start_obj buf in
            Json_out.field_int od "droppedEvents" 0;
            Json_out.field_str od "sink" "stream";
            Json_out.end_obj od;
            Json_out.key root "traceEvents";
            let arr = Json_out.start_arr buf in
            Trace_chrome.thread_names buf arr ~nranks;
            ctx := Some (root, arr, nranks))
          ~init:()
          ~f:(fun () ev ->
            match !ctx with
            | None -> ()
            | Some (_, arr, nranks) ->
                if Buffer.length buf >= flush_threshold then begin
                  Buffer.output_buffer oc buf;
                  Buffer.clear buf
                end;
                Trace_chrome.event buf arr ~nranks ~rank:ev.ev_rank ~kind:ev.ev_kind
                  ~cat:ev.ev_cat ~name:ev.ev_name ~ts:ev.ev_ts ~dur:ev.ev_dur ~a:ev.ev_a
                  ~b:ev.ev_b ~c:ev.ev_c ~d:ev.ev_d)
      in
      let result =
        match fold_result with
        | Error _ as e -> e
        | Ok ((), summary) -> (
            match !ctx with
            | None -> Error "empty trace stream: header missing"
            | Some (root, arr, _) ->
                Json_out.end_arr arr;
                Json_out.end_obj root;
                Buffer.output_buffer oc buf;
                Ok summary)
      in
      close_out oc;
      result
