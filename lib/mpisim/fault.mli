(** Process-failure injection — the substrate of the ULFM plugin
    (paper §V-B).

    A failed rank's fiber terminates; other ranks observe the failure as
    ERR_PROC_FAILED when they next depend on it (receives from it,
    collectives including it). *)

(** Terminate the calling rank as a process failure.  Never returns. *)
val die : Comm.t -> 'a

(** Mark a rank failed from outside (failure-injection schedules).  A
    running victim observes it at its next runtime operation; a parked
    victim (blocked in a receive that can no longer complete) is woken
    and discontinued by the scheduler on the next pass rather than
    surfacing as a deadlock. *)
val fail_world_rank : Runtime.t -> world_rank:int -> unit

(** Recognizer for the failure exception (used as the engine's kill
    filter). *)
val is_kill_exn : exn -> bool
