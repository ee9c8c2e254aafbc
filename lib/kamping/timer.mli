(** Distributed measurement timer (the measurements facility of the
    reference library), on the runtime's virtual clock.

    Accumulate named durations per rank with {!start}/{!stop}/{!time};
    {!aggregate} collectively reduces each key to (min, mean, max) across
    ranks. *)

type t

val create : Communicator.t -> t

(** Raises [Usage_error] if [key] is already running. *)
val start : t -> string -> unit

(** Raises [Usage_error] if [key] is not running. *)
val stop : t -> string -> unit

(** Time a closure under [key] (exception-safe). *)
val time : t -> string -> (unit -> 'a) -> 'a

(** This rank's (key, total seconds, timing count), in first-use order. *)
val local : t -> (string * float * int) list

type aggregate = { key : string; min : float; mean : float; max : float; count : int }

(** Collective: every rank must have used the same keys in the same
    order.  Also publishes each aggregate into the runtime's stats
    registry as [timer.<key>.{min,mean,max}_seconds] gauges, so timed
    phases appear in [--stats] dumps and are bench-diff comparable. *)
val aggregate : t -> aggregate list
