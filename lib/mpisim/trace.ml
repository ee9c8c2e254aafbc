(* Structured event tracing for the simulator.

   Spans mark the extent of operations — scheduler CPU segments, mpisim
   collectives and point-to-point calls, kamping-layer calls, timer keys —
   and instants mark point happenings (message injection, match,
   park/resume, failure injection), all stamped on the hybrid virtual
   clock (the same clock the scaling figures report).

   Two sinks:

   - [Ring] (default): each rank owns a bounded ring buffer.  When a ring
     overflows, the oldest events are evicted and counted; exports mention
     the loss rather than silently truncating.

   - [Stream]: every event is appended incrementally to a binary file
     (Trace_stream) with a per-rank sequence number.  No per-rank buffers
     are allocated at all — idle ranks cost O(1) memory — and nothing is
     ever dropped, which is the only viable shape at 10^5+ ranks.

   Both sinks hold one record (Trace_stream.event) and [fold] reads
   either back, so its consumers do not depend on the sink.

   The recorder is created disabled and compiles down to a no-op in that
   state: every emit function first reads a single mutable bool and
   returns, without allocating, so the zero-overhead microbenchmarks are
   unaffected by the mere presence of instrumentation.  Because the
   emitters read the timestamp themselves (the recorder holds the
   runtime's clock array), call sites never box a float argument on the
   disabled path. *)

open Trace_stream

type ring = {
  mutable ev : event array;
  mutable start : int;  (* index of oldest event *)
  mutable len : int;
  mutable dropped : int;
}

type sink = Ring | Stream of Trace_stream.t * string (* the writer and its file *)

type t = {
  mutable enabled : bool;
  clocks : float array;  (* the runtime's per-rank virtual clocks *)
  rings : ring array;
  mutable sink : sink;
}

let dummy_event =
  { kind = Instant; cat = ""; name = ""; ts = 0.; dur = 0.; a = -1; b = -1; c = -1; d = -1 }

let default_capacity = 1 lsl 16

let create ~clocks =
  {
    enabled = false;
    clocks;
    rings = Array.map (fun _ -> { ev = [||]; start = 0; len = 0; dropped = 0 }) clocks;
    sink = Ring;
  }

let ranks t = Array.length t.rings

let enabled t = t.enabled

(* Recording into a stream sink.  The happens-before analyzer's extra
   instants (post, matched, send_meta, nc_order) are emitted only then:
   every stream capture is analyzable offline, and ring traces keep their
   exact event mix. *)
let is_streaming t = match t.sink with Stream _ -> t.enabled | Ring -> false

let close_stream t =
  match t.sink with
  | Ring -> ()
  | Stream (w, _) ->
      Trace_stream.close w;
      t.enabled <- false

let reset_rings t capacity =
  Array.iter
    (fun r ->
      if Array.length r.ev <> capacity then
        r.ev <- (if capacity = 0 then [||] else Array.make capacity dummy_event);
      r.start <- 0;
      r.len <- 0;
      r.dropped <- 0)
    t.rings

let enable ?(capacity = default_capacity) t =
  if capacity <= 0 then invalid_arg "Trace.enable: capacity must be positive";
  close_stream t;
  t.sink <- Ring;
  reset_rings t capacity;
  t.enabled <- true

(* Stream sink: no ring storage at all (capacity 0), every event goes to
   the file as it is emitted. *)
let enable_stream t ~path =
  close_stream t;
  reset_rings t 0;
  t.sink <- Stream (Trace_stream.create ~path ~ranks:(ranks t), path);
  t.enabled <- true

let stream_events t =
  match t.sink with Ring -> 0 | Stream (w, _) -> Trace_stream.events_written w

(* Total ring slots currently allocated — 0 under the stream sink; the
   scale tests assert this stays 0 for arbitrarily large rank counts. *)
let ring_capacity_total t =
  Array.fold_left (fun acc r -> acc + Array.length r.ev) 0 t.rings

let push r e =
  let cap = Array.length r.ev in
  if r.len < cap then begin
    r.ev.((r.start + r.len) mod cap) <- e;
    r.len <- r.len + 1
  end
  else begin
    (* Full: evict the oldest event. *)
    r.ev.(r.start) <- e;
    r.start <- (r.start + 1) mod cap;
    r.dropped <- r.dropped + 1
  end

let emit t rank kind cat name dur a b c d =
  let e = { kind; cat; name; ts = t.clocks.(rank); dur; a; b; c; d } in
  match t.sink with
  | Ring -> push t.rings.(rank) e
  | Stream (w, _) -> Trace_stream.write_event w ~rank e

let span_begin t ~rank ~cat ~name =
  if t.enabled then emit t rank Begin cat name 0. (-1) (-1) (-1) (-1)

let span_end t ~rank ~cat ~name =
  if t.enabled then emit t rank End cat name 0. (-1) (-1) (-1) (-1)

let instant t ~rank ~cat ~name ~a ~b ~c =
  if t.enabled then emit t rank Instant cat name 0. a b c (-1)

(* An instant carrying the emitting rank's Lamport clock in [d] (send and
   match events; the causal walk and flow export read it back). *)
let instant_d t ~rank ~cat ~name ~a ~b ~c ~d =
  if t.enabled then emit t rank Instant cat name 0. a b c d

(* A complete span reported after the fact (scheduler CPU segments): the
   timestamp is the current clock, [dur] reaches back. *)
let complete t ~rank ~cat ~name ~dur =
  if t.enabled then emit t rank Complete cat name dur (-1) (-1) (-1) (-1)

(* [with_span t ~rank ~cat ~name f] wraps [f] in a span; on the disabled
   path it is just a call through. *)
let with_span t ~rank ~cat ~name f =
  if not t.enabled then f ()
  else begin
    span_begin t ~rank ~cat ~name;
    Fun.protect ~finally:(fun () -> span_end t ~rank ~cat ~name) f
  end

let total_dropped t = Array.fold_left (fun acc r -> acc + r.dropped) 0 t.rings

(* The one reader: the rings rank by rank, or the closed stream file. *)
let fold ?(on_header = ignore) t ~init ~f =
  match t.sink with
  | Stream (_, path) -> Result.map fst (fold_file ~on_header path ~init ~f)
  | Ring ->
      on_header (ranks t);
      let acc = ref init in
      Array.iteri
        (fun rank r ->
          for i = 0 to r.len - 1 do
            acc := f !acc rank r.ev.((r.start + i) mod Array.length r.ev)
          done)
        t.rings;
      Ok !acc

(* Events of one rank in emission order. *)
let events t rank =
  match fold t ~init:[] ~f:(fun acc r e -> if r = rank then e :: acc else acc) with
  | Ok evs -> List.rev evs
  | Error msg -> failwith msg

(* Chrome trace-event export: Trace_chrome's writer over [fold]. *)
let export t write =
  let streamed = match t.sink with Stream _ -> true | Ring -> false in
  write ~dropped:(total_dropped t) ~streamed (fun ~on_header -> fold ~on_header t)

let to_chrome_json t =
  let buf = Buffer.create 65536 in
  match export t (Trace_chrome.write buf) with
  | Ok () -> Buffer.contents buf
  | Error msg -> failwith msg

let write_chrome_file t path = export t (Trace_chrome.write_file path)
