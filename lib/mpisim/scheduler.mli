(** Cooperative fiber scheduler built on OCaml effects.

    Each simulated rank is a fiber.  A fiber blocks through its wait
    slot, one per fiber and owned by the run: {!wait} stores the [ready]
    and [describe] closures of what it waits for there and performs the
    one payload-free effect; the scheduler re-polls [ready] on
    subsequent passes and resumes the fiber once it holds.  A park
    allocates only the continuation and its state, so a caller that
    waits on closures it already holds (a request's own [ready], a
    handle's receive slot) blocks without allocating anything else.
    Scheduling is deterministic round-robin, so simulations are
    reproducible.

    Deadlock detection: a full pass that runs nothing while the progress
    counter is unchanged proves no slot can ever become ready again (all
    state changes come from fibers); the run aborts with per-fiber wait
    descriptions. *)

type 'a poll = unit -> 'a option

(** A fiber raised [exn]; parked peers were discontinued. *)
exception Aborted of { rank : int; exn : exn; backtrace : Printexc.raw_backtrace }

exception Deadlock of { parked : (int * string) list; finished : int; total : int }

(** Block the current fiber until [ready ()] holds.  Fast path: a wait
    that is already over does not park.  [describe] feeds the deadlock
    diagnostics.  [ready] runs in scheduler context and must be cheap
    and side-effect-light.  Neither closure is copied: pass ones that
    already exist and the park allocates only its continuation. *)
val wait : describe:(unit -> string) -> ready:(unit -> bool) -> unit

(** {!wait} for a poll that returns a value: blocks until [poll] returns
    [Some v] and returns [v].  It builds one closure, and only when the
    first poll fails. *)
val park : describe:(unit -> string) -> poll:'a poll -> 'a

(** Let every other runnable fiber run once: a wait on a static
    always-ready slot, which the park hooks do not count. *)
val yield : unit -> unit

type outcome = Finished | Raised of exn * Printexc.raw_backtrace

(** Raised into parked fibers when another fiber's failure aborts the
    run. *)
exception Abandoned_fiber

(** [run ~progress ~nfibers body] executes [body rank] for every rank.

    @param progress a monotone counter that changes whenever shared state
           changes (drives deadlock detection)
    @param on_segment receives (rank, real seconds) for every executed
           fiber segment — the measured-compute feed of the hybrid clock;
           when absent no segment is timed and no clock is read
    @param on_park called when a fiber actually parks (its wait was not
           over); voluntary yields do not count
    @param on_resume called with (rank, wall seconds parked) when a parked
           fiber's wait is over and it is about to resume
    @param kill_filter exceptions representing injected process failures:
           such fibers end as [Raised] without aborting the others
    @param wake_check consulted before polling a parked fiber: [Some exn]
           discontinues the fiber with [exn] instead of resuming it — how
           fault injection reaches a victim blocked in a receive whose
           wait can never end
    @param on_quiescence called when a full pass ran nothing and the
           progress counter is unchanged — the point where the model
           checker resolves a deferred match decision.  Returning [true]
           means "state changed, keep scheduling" (the hook must have
           bumped the progress counter or satisfied a poll, or detection
           loops forever); [false] falls through to the deadlock report.

    The park/resume hooks cost one extra [gettimeofday] per park when
    supplied and nothing when absent.  Runs on different domains, or a
    run nested in another run's fiber, keep their slots apart: each
    fiber finds its run through a domain-local pointer that [run]
    restores when it returns or raises. *)
val run :
  ?on_segment:(int -> float -> unit) ->
  ?on_park:(int -> unit) ->
  ?on_resume:(int -> float -> unit) ->
  ?kill_filter:(exn -> bool) ->
  ?wake_check:(int -> exn option) ->
  ?on_quiescence:(unit -> bool) ->
  progress:(unit -> int) ->
  nfibers:int ->
  (int -> unit) ->
  outcome array
