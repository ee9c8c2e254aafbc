(** Streaming trace sink: length-prefixed binary records on a channel.

    The alternative to the per-rank ring buffers of {!Trace} for runs too
    large (or too long) to buffer in memory: every event is appended to a
    file as it is emitted, with interned category/name strings and a
    per-rank sequence number, so idle ranks cost O(1) memory and nothing
    is ever dropped.  A reader proves completeness by checking that the
    sequence numbers of every rank are contiguous from zero. *)

(** {1 The event record}

    Shared by every sink and reader; the emitting rank travels beside it
    (the folds' [int] argument). *)

type kind = Begin | End | Instant | Complete

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

(** {1 Writer} *)

type t

(** Open a stream writer on [path] (truncating it) for [ranks] ranks.
    Raises [Invalid_argument] unless [1 <= ranks <= 2{^20}]. *)
val create : path:string -> ranks:int -> t

(** Append one event of [rank]. *)
val write_event : t -> rank:int -> event -> unit

(** Events written so far (all ranks). *)
val events_written : t -> int

(** Flush and close the underlying channel.  Idempotent; writing after
    [close] raises. *)
val close : t -> unit

(** {1 Reader} *)

type summary = { s_ranks : int; s_events : int }

(** Stream the events of a file through [f] (with the emitting rank), in
    file order — each rank's events in emission order — validating the
    header, the string table and the per-rank sequence contiguity; [on_header] fires
    once with the rank count before the first event.  Records of unknown
    tags (including the vector-clock records older writers emitted as
    tag 3) are skipped by length.  Returns the folded value and a
    summary, or a description of the first corruption — a rank count
    above 2{^20} or a record longer than the rest of the file is
    reported before anything of that size is allocated.  Never raises on
    malformed input. *)
val fold_file :
  ?on_header:(int -> unit) ->
  string ->
  init:'a ->
  f:('a -> int -> event -> 'a) ->
  ('a * summary, string) result
