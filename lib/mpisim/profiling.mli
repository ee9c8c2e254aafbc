(** PMPI-style profiling: per-operation call and byte counters.

    The paper verifies through MPI's profiling interface that the binding
    layer issues exactly the expected underlying calls when it computes
    default parameters (§III-H); tests here do the same via
    {!snapshot}/{!diff}.

    The table is a facade over a {!Stats.t} registry: each op owns the
    counter pair [mpi.<op>.calls] / [mpi.<op>.bytes], so the same numbers
    appear in the general metrics exports. *)

type t

type summary = (string * int * int) list
(** (operation, calls, bytes), sorted by operation name. *)

(** [create ?stats ()] registers the op counters in [stats] (a private
    registry if omitted). *)
val create : ?stats:Stats.t -> unit -> t

val record : t -> op:string -> bytes:int -> unit

(** Pre-resolved counter handles for an op, for allocation-free hot paths
    (persistent-request cycles): {!prepare} pays the hash lookup once,
    {!record_prepared} is then two counter bumps. *)
type prepared

val prepare : t -> string -> prepared

val record_prepared : t -> prepared -> bytes:int -> unit

(** Slots of a table's handle cache: [0 <= slot < n_slots]. *)
val n_slots : int

(** [record_slot t ~slot ~op ~bytes] is [record t ~op ~bytes] for an op
    that is always recorded with the same [slot] (the point-to-point ops
    of every message): the handles are looked up at the op's first call
    in [t] and kept in the slot, so later calls hash nothing.  Until that
    first call the op is not in [t], as with {!record}. *)
val record_slot : t -> slot:int -> op:string -> bytes:int -> unit

val set_enabled : t -> bool -> unit

val snapshot : t -> summary

val calls : t -> op:string -> int

val bytes : t -> op:string -> int

val total_calls : t -> int

(** Operations whose counters changed between two snapshots, with deltas.
    Symmetric: ops present only in [before] appear with negative deltas
    (a reset or rename cannot hide a change). *)
val diff : before:summary -> after:summary -> summary

val pp_summary : Format.formatter -> summary -> unit
