(* Chrome trace-event JSON emission: the one writer behind the ring
   export (Trace), [--trace] beside [--trace-stream], and the offline
   stream converter.  It consumes a fold over the event record
   (Trace.fold or Trace_stream.fold_file), so every export path shares
   these rendering rules:

   - one "thread" per rank on the virtual timeline; [Complete] events
     (scheduler CPU segments) go to a separate per-rank track so their
     overlap with operation spans cannot break B/E nesting;
   - message-flow arrows: a "send" instant opens a Chrome flow event
     (ph "s") keyed by the global message sequence number and the
     matching "match"/"match_wait" instant closes it (ph "f", bp "e"),
     so the viewer draws an arrow from injection to match;
   - zero-duration [Complete] spans are clamped to a minimum visible
     epsilon and tagged [zero_dur=1] so they do not vanish in the
     viewer. *)

open Trace_stream

let us ts = ts *. 1e6

(* Minimum rendered duration for a Complete span: 1ns on the microsecond
   scale the format uses.  Real spans of exactly zero virtual length are
   common in Virtual_only mode (uncharged segments). *)
let zero_dur_epsilon_us = 1e-3

(* A send instant opens a flow, a match instant closes it; the flow id is
   the global message sequence number carried in arg [b]. *)
let flow_phase e =
  if e.kind <> Instant || e.cat <> "sim" || e.b < 0 then None
  else if String.equal e.name "send" then Some "s"
  else if String.equal e.name "match" || String.equal e.name "match_wait" then Some "f"
  else None

let write_flow buf arr ~tid ~phase ~id ~ts =
  Json_out.sep arr;
  let o = Json_out.start_obj buf in
  Json_out.field_str o "name" "msg";
  Json_out.field_str o "cat" "flow";
  Json_out.field_str o "ph" phase;
  Json_out.field_int o "id" id;
  Json_out.field_int o "pid" 0;
  Json_out.field_int o "tid" tid;
  Json_out.field_float o "ts" (us ts);
  if String.equal phase "f" then Json_out.field_str o "bp" "e";
  Json_out.end_obj o

(* Write one event of [rank] (plus its flow arrow end, if any) into the
   [traceEvents] array [arr].  [nranks] fixes the CPU-track tid offset. *)
let event buf arr ~nranks ~rank e =
  let tid = if e.kind = Complete then nranks + rank else rank in
  let zero_dur = e.kind = Complete && e.dur <= 0. in
  Json_out.sep arr;
  let o = Json_out.start_obj buf in
  Json_out.field_str o "name" e.name;
  Json_out.field_str o "cat" e.cat;
  Json_out.field_str o "ph"
    (match e.kind with Begin -> "B" | End -> "E" | Instant -> "i" | Complete -> "X");
  Json_out.field_int o "pid" 0;
  Json_out.field_int o "tid" tid;
  (match e.kind with
  | Complete ->
      Json_out.field_float o "ts" (us (e.ts -. e.dur));
      Json_out.field_float o "dur" (if zero_dur then zero_dur_epsilon_us else us e.dur)
  | Begin | End -> Json_out.field_float o "ts" (us e.ts)
  | Instant ->
      Json_out.field_float o "ts" (us e.ts);
      Json_out.field_str o "s" "t");
  if e.a >= 0 || e.b >= 0 || e.c >= 0 || e.d >= 0 || zero_dur then begin
    Json_out.key o "args";
    let args = Json_out.start_obj buf in
    if e.a >= 0 then Json_out.field_int args "a" e.a;
    if e.b >= 0 then Json_out.field_int args "b" e.b;
    if e.c >= 0 then Json_out.field_int args "c" e.c;
    if e.d >= 0 then Json_out.field_int args "lamport" e.d;
    if zero_dur then Json_out.field_int args "zero_dur" 1;
    Json_out.end_obj args
  end;
  Json_out.end_obj o;
  match flow_phase e with
  | Some phase -> write_flow buf arr ~tid:rank ~phase ~id:e.b ~ts:e.ts
  | None -> ()

let write_thread_name buf arr ~tid ~name =
  Json_out.sep arr;
  let o = Json_out.start_obj buf in
  Json_out.field_str o "name" "thread_name";
  Json_out.field_str o "ph" "M";
  Json_out.field_int o "pid" 0;
  Json_out.field_int o "tid" tid;
  Json_out.key o "args";
  let args = Json_out.start_obj buf in
  Json_out.field_str args "name" name;
  Json_out.end_obj args;
  Json_out.end_obj o

let thread_names buf arr ~nranks =
  for rank = 0 to nranks - 1 do
    write_thread_name buf arr ~tid:rank ~name:(Printf.sprintf "rank %d" rank);
    write_thread_name buf arr ~tid:(nranks + rank)
      ~name:(Printf.sprintf "rank %d cpu" rank)
  done

(* A file writer hands the buffer to [drain] past this size, so exports
   of any length run in bounded memory. *)
let drain_threshold = 64 * 1024

(* The writer.  [read] is a fold over one recorded run (Trace.fold or
   Trace_stream.fold_file, partially applied); [write] returns its
   result.  [dropped] and [streamed] fill [otherData]. *)
let write ?(drain = ignore) buf ~dropped ~streamed read =
  let root = Json_out.start_obj buf in
  Json_out.field_str root "displayTimeUnit" "ms";
  Json_out.key root "otherData";
  let od = Json_out.start_obj buf in
  Json_out.field_int od "droppedEvents" dropped;
  if streamed then Json_out.field_str od "sink" "stream";
  Json_out.end_obj od;
  Json_out.key root "traceEvents";
  let arr = Json_out.start_arr buf in
  let nranks = ref 0 in
  let result =
    read
      ~on_header:(fun n ->
        nranks := n;
        thread_names buf arr ~nranks:n)
      ~init:()
      ~f:(fun () rank e ->
        if Buffer.length buf >= drain_threshold then drain buf;
        event buf arr ~nranks:!nranks ~rank e)
  in
  Json_out.end_arr arr;
  Json_out.end_obj root;
  result

(* [write] into the file [path]; on any error the partial file is
   removed, so a failed export leaves no output behind. *)
let write_file path ~dropped ~streamed read =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc ->
      let drain b =
        Buffer.output_buffer oc b;
        Buffer.clear b
      in
      let result =
        try
          let buf = Buffer.create (drain_threshold + 4096) in
          let r = write ~drain buf ~dropped ~streamed read in
          drain buf;
          close_out oc;
          r
        with Sys_error msg ->
          close_out_noerr oc;
          Error msg
      in
      if Result.is_error result then Sys.remove path;
      result

(* The offline converter: a stream capture to Chrome JSON. *)
let convert ~src ~dst =
  Result.map snd
    (write_file dst ~dropped:0 ~streamed:true (fun ~on_header -> fold_file ~on_header src))
