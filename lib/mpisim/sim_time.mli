(** Virtual time used by the simulator.

    Times are non-negative floats in seconds.  Clocks only move forward. *)

type t = float

(** The origin. *)
val zero : t

val add : t -> t -> t

val max : t -> t -> t

val compare : t -> t -> int

val ( + ) : t -> t -> t

(** Human-readable rendering with an adaptive unit (ns/us/ms/s). *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
