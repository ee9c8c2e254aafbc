(** Structured event tracing on the hybrid virtual clock.

    Spans mark operation extents (scheduler segments, collectives, p2p
    calls, kamping calls, timer keys) and instants mark point happenings
    (message injection and match, park/resume, failure injection).

    Two sinks: the default {e ring} sink buffers a bounded window per
    rank (evicting and counting the oldest on overflow, {!dropped}); the
    {e stream} sink ({!enable_stream}) appends every event incrementally
    to a binary {!Trace_stream} file with per-rank sequence numbers — no
    per-rank buffers at all, nothing dropped, O(1) memory per idle rank.

    The recorder is created {e disabled}: every emitter first checks a
    single mutable bool and returns without allocating, so instrumented
    hot paths cost one branch when tracing is off.  Emitters read the
    timestamp themselves from the runtime's clock array, so call sites
    never box a float on the disabled path. *)

type kind = Trace_chrome.kind = Begin | End | Instant | Complete

type event = {
  kind : kind;
  cat : string;  (** layer: ["sched"], ["sim"], ["coll"], ["p2p"], ["kamping"], ["timer"] *)
  name : string;
  ts : float;  (** virtual time; for [Complete], the span's {e end} *)
  dur : float;  (** span length, [Complete] only *)
  a : int;  (** event args, [-1] when unused. [send]: a=dst b=seq c=bytes; *)
  b : int;  (** [match]/[match_wait]: a=src b=seq c=bytes; [park]/[resume]: none *)
  c : int;
  d : int;  (** the emitting rank's Lamport clock on send/match instants *)
}

type t

(** [create ~clocks] builds a disabled recorder with one ring per entry of
    [clocks] (the runtime's per-rank virtual clocks, read at emit time). *)
val create : clocks:float array -> t

val ranks : t -> int

val enabled : t -> bool

val default_capacity : int

(** Allocate the per-rank rings (default {!default_capacity} events each)
    and start recording.  Resets previously recorded events and closes a
    previously active stream sink. *)
val enable : ?capacity:int -> t -> unit

(** Switch to the stream sink and start recording: events append to the
    binary file at [path] as they are emitted; no ring storage is
    allocated.  {!events} and post-run analysis see nothing — the file is
    the record; convert it with {!Trace_stream.convert_to_chrome}. *)
val enable_stream : t -> path:string -> unit

(** Whether events are being recorded into a stream sink (tracing on,
    stream sink active).  Gates the happens-before analyzer's extra
    instants, so every stream capture is analyzable offline while ring
    traces keep their exact event mix; one branch when tracing is off. *)
val is_streaming : t -> bool

(** Flush and close the stream sink (idempotent; no-op for the ring
    sink).  Recording stops.  The engine calls this at the end of a run
    so the file is complete when the report is returned. *)
val close_stream : t -> unit

(** Events written to the stream sink so far; 0 for the ring sink. *)
val stream_events : t -> int

(** Total ring slots currently allocated across all ranks — 0 under the
    stream sink (asserted by the scale tests). *)
val ring_capacity_total : t -> int

val disable : t -> unit

val span_begin : t -> rank:int -> cat:string -> name:string -> unit

val span_end : t -> rank:int -> cat:string -> name:string -> unit

val instant : t -> rank:int -> cat:string -> name:string -> a:int -> b:int -> c:int -> unit

(** Like {!instant} with the emitting rank's Lamport clock in [d]. *)
val instant_d :
  t -> rank:int -> cat:string -> name:string -> a:int -> b:int -> c:int -> d:int -> unit

(** A complete span reported after the fact (scheduler CPU segments): the
    timestamp is the current clock and [dur] reaches back. *)
val complete : t -> rank:int -> cat:string -> name:string -> dur:float -> unit

(** Wrap a closure in a span (exception-safe); a plain call when
    disabled. *)
val with_span : t -> rank:int -> cat:string -> name:string -> (unit -> 'a) -> 'a

(** Events evicted from [rank]'s ring so far. *)
val dropped : t -> int -> int

val total_dropped : t -> int

(** Events currently buffered for [rank]. *)
val length : t -> int -> int

(** Chronological event list of one rank. *)
val events : t -> int -> event list

val iter_events : t -> int -> (event -> unit) -> unit

(** {1 Chrome trace-event export}

    Loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.
    One thread per rank on the virtual timeline; scheduler CPU segments go
    to a separate per-rank track; send→match pairs are drawn as flow
    arrows keyed by the global message sequence number. *)

val chrome_json_into : Buffer.t -> t -> unit

val to_chrome_json : t -> string

val write_chrome_file : t -> string -> unit
