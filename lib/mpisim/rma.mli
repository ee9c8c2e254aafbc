(** One-sided communication (RMA windows) with two synchronization modes:

    - active target: issue {!put}/{!get}/{!accumulate} between two
      {!fence} calls; the closing fence applies every rank's pending
      operations in deterministic (origin rank, issue order) and
      synchronizes;
    - passive target: {!lock} an exclusive or shared epoch on one target,
      issue operations against it, and {!unlock} to apply them — without
      the target participating.  {!with_locked} is the exception-safe
      guard.

    Cost model: each operation charges its origin one message
    (alpha + beta * bytes); gets additionally wait a round trip
    (2*alpha + beta * bytes) at the closing fence or unlock; a lock
    acquisition waits a round trip to the target.

    Bounds are validated when an operation is issued: an out-of-range
    target access raises ERR_RMA_RANGE at the call site (and bumps the
    [check.rma_range] counter under the sanitizer). *)

type 'a t

(** Create a window exposing [local] for one-sided access.  Collective;
    returns once every rank has registered its exposure.  The array
    remains owned by its rank; remote access goes through the window.
    Every rank passes the same datatype value ({!Datatype.int}, or one
    derived type shared by the ranks): its identity is what types the
    window's shared state, and a rank passing another raises a usage
    error. *)
val create : Comm.t -> 'a Datatype.t -> 'a array -> 'a t

(** Queue a put of [data] into [target]'s exposure at [target_pos];
    applied at the next {!fence}, or at {!unlock} inside a lock epoch. *)
val put : 'a t -> target:int -> target_pos:int -> 'a array -> unit

(** Queue a get of [count] elements from [target]'s exposure into [into]
    at [into_pos]; the data is valid after the next {!fence} (or
    {!unlock}). *)
val get : 'a t -> target:int -> target_pos:int -> count:int -> 'a array -> into_pos:int -> unit

(** Queue an accumulate of [data] into [target]'s exposure under the
    reduction operator.  Well-defined under concurrent accumulates (all
    are applied in the deterministic order). *)
val accumulate : 'a t -> target:int -> target_pos:int -> 'a Reduce_op.t -> 'a array -> unit

(** Close the active-target access epoch: apply all pending operations
    and synchronize.  Collective.  Raises if a lock epoch is open. *)
val fence : 'a t -> unit

(** {1 Passive target (lock/unlock epochs)} *)

(** Open a passive-target epoch on [target] ([exclusive] defaults to
    [true]); blocks cooperatively until acquirable.  A shared lock
    tolerates other shared holders.  One open epoch per window per
    origin; operations issued while it is open must address [target]. *)
val lock : ?exclusive:bool -> 'a t -> target:int -> unit

(** Close the open epoch: apply this origin's operations in issue order
    and release the lock. *)
val unlock : 'a t -> unit

(** [with_locked t ~target f] runs [f] inside a lock epoch on [target];
    the epoch is closed on any exit, including exceptions. *)
val with_locked : ?exclusive:bool -> 'a t -> target:int -> (unit -> 'b) -> 'b

(** {1 Local access and lifetime} *)

(** This rank's exposed array (direct local access; observe remote writes
    only after a synchronization). *)
val local : 'a t -> 'a array

(** Free the window.  Collective.  The last rank removes the window's
    shared state from its communicator, so repeated create/free cycles
    hold no residual memory.  Raises on double free or with a lock epoch
    open. *)
val free : 'a t -> unit
