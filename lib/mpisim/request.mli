(** Request objects for non-blocking operations.

    A request separates cheap completion {e detection} ([ready], safe from
    the scheduler's poll loop) from {e finalization} ([finalize], which
    runs in the owning fiber: it unpacks data, updates the owner's clock,
    and may raise failure errors).  [test]/[wait] are idempotent after
    completion, matching MPI's inactive-request semantics. *)

type t

(** Sanitizer hook: [on_rewait] is called when any completion entry point
    — {!wait}, {!test}, {!wait_any} or {!test_some} — touches a request
    that already completed (MPI's "wait on an inactive request", which
    MUST-style tools flag as use of a freed request). *)
type observer = { on_rewait : unit -> unit }

val make :
  ready:(unit -> bool) ->
  finalize:(unit -> Status.t) ->
  describe:(unit -> string) ->
  t

(** A request for an operation that progresses in steps (a nonblocking
    collective's schedule).  [advance] runs in the owning fiber: it takes
    every step that can be taken now and returns [true] once the
    operation is done.  {!test} calls it in place of [ready], so work
    between tests overlaps the operation; [ready] stays the scheduler-safe
    poll {!wait} parks on. *)
val make_stepped :
  advance:(unit -> bool) ->
  ready:(unit -> bool) ->
  finalize:(unit -> Status.t) ->
  describe:(unit -> string) ->
  t

(** Attach an observer (used by the {!Check} sanitizer on tracked
    requests).  Requests without one pay a single pointer comparison. *)
val set_observer : t -> observer -> unit

(** Human-readable description of the pending operation. *)
val describe : t -> string

(** Non-blocking completion check; finalizes on first success. *)
val test : t -> Status.t option

(** Block (cooperatively) until complete. *)
val wait : t -> Status.t

val is_complete : t -> bool

val wait_all : t list -> Status.t list

(** Block until at least one request completes; returns its index and
    status.  Raises [Invalid_argument] on the empty list. *)
val wait_any : t list -> int * Status.t

(** Complete every currently-ready request without blocking; returns
    (index, status) pairs. *)
val test_some : t list -> (int * Status.t) list

(** {1 Persistent requests}

    MPI-4 [*_init] operations: validation, algorithm selection, datatype
    plan compilation and buffer pre-acquisition happen once at init; the
    request is then cycled through {!start}/{!wait_p} with no per-cycle
    allocation ([start] and the fast path of [wait_p] build no closures).

    Lifecycle: init → inactive; [start] activates (usage error if already
    active); [wait_p]/[test_p] return it to inactive and are no-ops on an
    inactive request; [free_p] is a usage error while active. *)

type p

(** [make_p ~describe ~start ~advance ~ready ~run] builds a persistent
    request from preallocated cycle closures: [start] begins one cycle,
    [ready] is the cheap scheduler-safe completion poll, [run] finishes
    the cycle in the owning fiber, and [advance] is {!test_p}'s progress
    step, as for {!make_stepped} ([ready] itself for a cycle that does
    not progress in steps). *)
val make_p :
  describe:string ->
  start:(unit -> unit) ->
  advance:(unit -> bool) ->
  ready:(unit -> bool) ->
  run:(unit -> unit) ->
  p

val describe_p : p -> string

(** Begin one cycle.  Usage error if the request is active or freed. *)
val start : p -> unit

(** Complete the current cycle (cooperatively blocking); no-op when
    inactive. *)
val wait_p : p -> unit

(** Non-blocking cycle completion: [true] when the request is (now)
    inactive, [false] if the cycle is still in flight. *)
val test_p : p -> bool

(** Release the request.  Usage error while active or on double free. *)
val free_p : p -> unit

val is_active : p -> bool

(** Number of [start]s so far (diagnostics and tests). *)
val started_cycles : p -> int
