(** Metrics registry: counters, gauges and log2-bucketed histograms.

    The registry generalizes the per-op call/byte table of {!Profiling}
    (which is now implemented on top of it): the runtime feeds it
    message-size, message-latency, mailbox-depth and fiber-park-duration
    distributions; exporters turn it into JSON ({!json_into}), or a
    histogram into text ({!pp_histogram}).

    All update operations ([incr], [add], [set], [observe]) are
    allocation-free, so they may sit on simulator hot paths: [observe]
    and [observe_int] are inlined into their callers, so a float
    argument is never boxed.  That needs cross-module inlining, which
    the default build has and [--profile dev] ([-opaque]) has not.

    A registry is owned by one run and is not safe to share between
    domains; independent runs on different domains (see
    [Engine.run_many]) each have their own. *)

type t

type counter

type gauge

(** Histogram over floats with power-of-two buckets (2{^-40} .. 2{^40});
    values [<= 0] land in the first bucket, larger values in an overflow
    bucket.  Tracks count, sum, min and max exactly; quantiles are
    bucket-resolution approximations. *)
type histogram

val create : unit -> t

(** [counter t name] returns the counter registered under [name],
    creating it on first use.  The handle may be cached; updates through
    it are visible to reporting. *)
val counter : t -> string -> counter

(** A counter registered in no registry, which no export lists: a
    placeholder a cache of handles can compare against. *)
val unregistered_counter : unit -> counter

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram

val incr : counter -> unit

val add : counter -> int -> unit

val count : counter -> int

val set : gauge -> float -> unit

val value : gauge -> float

val observe : histogram -> float -> unit

val observe_int : histogram -> int -> unit

(** The index of [v]'s bucket: 0 for [v <= 2{^-40}] (every [v <= 0]),
    the overflow bucket for [v > 2{^40}], otherwise the bucket whose
    upper bound is the smallest power of two [>= v]; [nan] lands in the
    last bucket below overflow. *)
val bucket_of : float -> int

val total : histogram -> int

val sum : histogram -> float

val mean : histogram -> float

val min_value : histogram -> float

val max_value : histogram -> float

(** Non-empty buckets as [(lower-exclusive, upper-inclusive, count)];
    the first bucket's lower bound is [neg_infinity] (it also holds all
    values [<= 0]) and the overflow bucket's upper bound is [infinity]. *)
val buckets : histogram -> (float * float * int) list

(** [quantile h q] for [q] in [0,1]: the upper bound of the bucket holding
    the q-th observation (exact max for the overflow bucket). *)
val quantile : histogram -> float -> float

(** Iteration (and hence {!json_into} output) is sorted by metric
    name, so dumps are deterministic and diffable across runs. *)
val iter_counters : t -> (string -> counter -> unit) -> unit

val iter_gauges : t -> (string -> gauge -> unit) -> unit

(** Value formatters for histogram reports. *)
val fmt_bytes : float -> string

val fmt_seconds : float -> string

val pp_histogram : ?fmt:(float -> string) -> Format.formatter -> histogram -> unit

val json_into : Buffer.t -> t -> unit
