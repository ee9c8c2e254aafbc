(* Process-failure injection (the substrate for the ULFM plugin, §V-B).

   A rank can fail itself with [die]; other ranks observe the failure as
   ERR_PROC_FAILED when they next depend on it (receives from it,
   collectives with it).  External test harnesses can fail a rank with
   [fail_world_rank]; the victim's fiber raises [Runtime.Process_killed] at
   its next runtime operation. *)

(* Terminate the calling rank as a process failure.  Never returns. *)
let die comm : 'a =
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  Runtime.kill rt me;
  raise (Runtime.Process_killed me)

(* Mark a rank as failed from outside (e.g. a failure-injection schedule).
   A running victim observes it at its next MPI operation; a victim that
   is parked (blocked in a receive that can no longer be satisfied) is
   woken and discontinued by the scheduler's wake check on the next pass,
   so killing a blocked rank never turns into a deadlock report. *)
let fail_world_rank rt ~world_rank =
  if world_rank < 0 || world_rank >= rt.Runtime.size then
    Errdefs.usage_error "fail_world_rank: invalid rank %d" world_rank;
  Runtime.kill rt world_rank

let is_kill_exn = function Runtime.Process_killed _ -> true | _ -> false
