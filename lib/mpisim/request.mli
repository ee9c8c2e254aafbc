(** Request objects for nonblocking and persistent operations.

    A request separates cheap completion {e detection} ([ready], safe from
    the scheduler's poll loop) from {e finalization} ([finalize], which
    runs in the owning fiber: it unpacks data, updates the owner's clock,
    and may raise failure errors).  [test]/[wait] are idempotent after
    completion, matching MPI's inactive-request semantics.

    A persistent request (MPI-4 [*_init]) is the same type: it is created
    inactive, {!start} re-arms it, and {!wait}/{!test}/{!wait_all}/
    {!wait_any}/{!test_some} complete it, so persistent cycles, nonblocking
    collectives and point-to-point requests mix in one list. *)

type t

(** Sanitizer hook: [on_rewait] is called when any completion entry point
    — {!wait}, {!test}, {!wait_any} or {!test_some} — touches a one-shot
    request that already completed (MPI's "wait on an inactive request",
    which MUST-style tools flag as use of a freed request). *)
type observer = { on_rewait : unit -> unit }

(** A schedule in flight.  [step], in the owning fiber, takes every step
    whose message is in the mailbox and says whether the schedule has
    finished; [wakes], scheduler-safe, holds only when [step] can take a
    step. *)
type sched = { step : unit -> bool; wakes : unit -> bool }

(** A rank's schedules in flight, in posting order ([Runtime.inflight]). *)
type inflight

val inflight : unit -> inflight

(** Add a started schedule that has not finished, given as the
    one-element list [[ sched ]], made once with it. *)
val enlist : inflight -> sched list -> unit

(** The one blocking wait: returns once [ready ()] holds.  With [q]
    empty it is exactly {!Scheduler.wait}; otherwise it advances every
    schedule of [q] in the calling fiber, dropping finished ones, and
    parks until [ready] holds or one of them [wakes], as often as
    needed.  It builds no closure: the park's combined wake rule is
    [q]'s own, and [ready] and [describe] are the caller's. *)
val block : inflight -> describe:(unit -> string) -> ready:(unit -> bool) -> unit

(** A request of the rank whose in-flight schedules are [q]: one-shot and
    active from creation, or, with [start], persistent and created
    inactive, each {!start} calling [start] to begin one cycle.
    [advance] (default [ready]) is {!test}'s progress step: it runs in the
    owning fiber, takes every step that can be taken now and returns
    [true] once the operation is done.  [ready] is the scheduler-safe poll
    {!wait} parks on. *)
val make :
  ?start:(unit -> unit) ->
  ?advance:(unit -> bool) ->
  ready:(unit -> bool) ->
  finalize:(unit -> Status.t) ->
  describe:(unit -> string) ->
  inflight ->
  t

(** Attach an observer (used by the {!Check} sanitizer on tracked
    requests).  Requests without one pay a single pointer comparison. *)
val set_observer : t -> observer -> unit

(** Human-readable description of the pending operation. *)
val describe : t -> string

(** Begin one cycle of a persistent request (allocating nothing of its
    own).  Usage error if it is not persistent, active, or freed. *)
val start : t -> unit

(** Release the request.  Usage error while active or on double free. *)
val free : t -> unit

(** Non-blocking completion check; finalizes on first success.  On an
    inactive request it returns its status at once. *)
val test : t -> Status.t option

(** Block (cooperatively) until complete.  On an inactive request it
    returns its status at once.  A wait that blocks parks on the
    request's own [ready] and a describe its rank already holds, so it
    builds no closure. *)
val wait : t -> Status.t

(** [true] once inactive: completed, or a persistent request not
    started. *)
val is_complete : t -> bool

val wait_all : t list -> Status.t list

(** Block until at least one request completes; returns its index and
    status.  An inactive request counts as complete.  Raises
    [Invalid_argument] on the empty list. *)
val wait_any : t list -> int * Status.t

(** Complete every currently-ready request without blocking; returns
    (index, status) pairs. *)
val test_some : t list -> (int * Status.t) list
