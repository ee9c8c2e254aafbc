(** Structured event tracing on the hybrid virtual clock.

    Spans mark operation extents (scheduler segments, collectives, p2p
    calls, kamping calls, timer keys) and instants mark point happenings
    (message injection and match, park/resume, failure injection).

    Two sinks: the default {e ring} sink buffers a bounded window per
    rank (evicting and counting the oldest on overflow, {!total_dropped}); the
    {e stream} sink ({!enable_stream}) appends every event incrementally
    to a binary {!Trace_stream} file with per-rank sequence numbers — no
    per-rank buffers at all, nothing dropped, O(1) memory per idle rank.
    Both hold one record, {!Trace_stream.event}, read back by {!fold}.

    The recorder is created {e disabled}: every emitter first checks a
    single mutable bool and returns without allocating, so instrumented
    hot paths cost one branch when tracing is off.  Emitters read the
    timestamp themselves from the runtime's clock array, so call sites
    never box a float on the disabled path. *)

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
    allocated.  Once {!close_stream} has run, {!fold} reads the file
    back. *)
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

(** Events evicted from the rings so far. *)
val total_dropped : t -> int

(** The one reader: [f acc rank ev] over every recorded event, each
    rank's in emission order, after [on_header] with the rank count.  The
    rings are read rank by rank; a stream is read back from its closed
    file ({!Trace_stream.fold_file}), whose corruption is the [Error]. *)
val fold :
  ?on_header:(int -> unit) ->
  t ->
  init:'a ->
  f:('a -> int -> Trace_stream.event -> 'a) ->
  ('a, string) result

(** One rank's events in emission order (a {!fold}); raises [Failure]
    when the stream file cannot be read. *)
val events : t -> int -> Trace_stream.event list

(** {1 Chrome trace-event export}

    Loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}:
    Trace_chrome's writer over {!fold}, whichever the sink.  One thread per
    rank on the virtual timeline; scheduler CPU segments go to a separate
    per-rank track; send→match pairs are drawn as flow arrows keyed by the
    global message sequence number. *)

(** Raises [Failure] when the stream file cannot be read. *)
val to_chrome_json : t -> string

(** Leaves no file behind on an error. *)
val write_chrome_file : t -> string -> (unit, string) result
