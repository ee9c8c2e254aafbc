(** Streaming trace sink: length-prefixed binary records on a channel.

    The alternative to the per-rank ring buffers of {!Trace} for runs too
    large (or too long) to buffer in memory: every event is appended to a
    file as it is emitted, with interned category/name strings and a
    per-rank sequence number, so idle ranks cost O(1) memory and nothing
    is ever dropped.  A reader proves completeness by checking that the
    sequence numbers of every rank are contiguous from zero. *)

type t

(** Largest rank count a stream may declare (2{^20}); the reader rejects
    headers above it before allocating per-rank state. *)
val max_ranks : int

(** Open a stream writer on [path] (truncating it) for [ranks] ranks.
    Raises [Invalid_argument] unless [1 <= ranks <= max_ranks]. *)
val create : path:string -> ranks:int -> t

val write_event :
  t ->
  rank:int ->
  kind:Trace_chrome.kind ->
  cat:string ->
  name:string ->
  ts:float ->
  dur:float ->
  a:int ->
  b:int ->
  c:int ->
  d:int ->
  unit

(** Events written so far (all ranks). *)
val events_written : t -> int

(** Next per-rank sequence number (= events written for that rank). *)
val seq : t -> int -> int

(** Flush and close the underlying channel.  Idempotent; writing after
    [close] raises. *)
val close : t -> unit

(** {1 Reader} *)

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

(** Stream the records of a file through [f], validating the header, the
    string table and the per-rank sequence contiguity; [on_header] fires
    once with the rank count before the first event.  Records of unknown
    tags (including the vector-clock records older writers emitted as
    tag 3) are skipped by length.  Returns the folded value and a
    summary, or a description of the first corruption — a rank count
    above {!max_ranks} or a record longer than the rest of the file is
    reported before anything of that size is allocated.  Never raises on
    malformed input. *)
val fold_file :
  ?on_header:(int -> unit) ->
  string ->
  init:'a ->
  f:('a -> event -> 'a) ->
  ('a * summary, string) result

(** Offline converter to Chrome trace-event JSON (chrome://tracing,
    Perfetto), with the same flow arrows and zero-duration clamping as
    {!Trace.chrome_json_into}; runs in bounded memory. *)
val convert_to_chrome : src:string -> dst:string -> (summary, string) result
