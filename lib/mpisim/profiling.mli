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

(** An operation of a hot path (every message and every collective
    entry), listed once in this module's table of op names: an op owns
    its index there as a slot in every table, where its counter handles
    are kept from its first use in that table on, so later records hash
    nothing.  Until that first use the op is not in the table, as with
    {!record}. *)
type op

(** [op name] is the listed op profiled as [name]; raises
    [Invalid_argument] for a name the table does not list. *)
val op : string -> op

val op_name : op -> string

(** Every listed op, in slot order. *)
val ops : op list

(** [record_op t op ~bytes] is [record t ~op:(op_name op) ~bytes]. *)
val record_op : t -> op -> bytes:int -> unit

(** [enter_op t op] puts [op] in the table now, with no calls if it was
    not there, as its first {!record_op} would: a nonblocking or
    persistent collective enters its op when it is created, before any
    cycle records. *)
val enter_op : t -> op -> unit

val snapshot : t -> summary

val calls : t -> op:string -> int

val bytes : t -> op:string -> int

(** Operations whose counters changed between two snapshots, with deltas.
    Symmetric: ops present only in [before] appear with negative deltas
    (a reset or rename cannot hide a change). *)
val diff : before:summary -> after:summary -> summary
