(* User-level failure mitigation (paper §V-B, Fig. 12): a long-running
   iterative computation survives the failure of two ranks by revoking the
   communicator, shrinking to the survivors, and continuing.

   One subtlety the Fig. 12 snippet leaves implicit: survivors may detect
   the failure in *different* iterations (a rank that lags behind fails
   its iteration-3 collective while faster ranks fail iteration 4), so
   after shrinking they must agree on where to resume — here with an
   allreduce(min) over the per-rank iteration counters.  Without this
   resynchronization the survivors would run different numbers of
   collectives and deadlock.

     dune exec examples/fault_tolerance.exe -- [--check LEVEL] [ranks] *)

open Mpisim

let iterations = 10

let () =
  let ranks = Example_cli.arg 0 int_of_string ~default:8 in
  let victim1 = 2 and victim2 = 5 in
  let results, report =
    Engine.run_collect ~check_level:Example_cli.check_level ~ranks (fun mpi ->
        let comm = ref (Kamping.Communicator.of_mpi mpi) in
        let me = Comm.rank mpi in
        let completed = ref 0 in
        let iter = ref 1 in
        let recoveries = ref 0 in
        while !iter <= iterations do
          (* Two ranks fail when they reach iteration 4. *)
          if !iter = 4 && (me = victim1 || me = victim2) then Fault.die mpi;
          let step () =
            Kamping.Collectives.allreduce_single !comm Datatype.int Reduce_op.int_sum 1
          in
          match Kamping_plugins.Ulfm.detect step with
          | (_ : int) ->
              incr completed;
              incr iter
          | exception Kamping_plugins.Ulfm.Failure_detected _ ->
              incr recoveries;
              if not (Kamping_plugins.Ulfm.is_revoked !comm) then
                Kamping_plugins.Ulfm.revoke !comm;
              comm := Kamping_plugins.Ulfm.shrink !comm;
              (* Resynchronize: all survivors resume from the earliest
                 iteration any of them still has to (re)do. *)
              iter :=
                Kamping.Collectives.allreduce_single !comm Datatype.int Reduce_op.int_min
                  !iter
        done;
        (!completed, !recoveries, Kamping.Communicator.size !comm))
  in
  Array.iteri
    (fun r outcome ->
      match outcome with
      | None -> Printf.printf "rank %d: FAILED (injected)\n" r
      | Some (completed, recoveries, final_size) ->
          Printf.printf
            "rank %d: completed %d iterations (%d recoveries), final communicator size %d\n"
            r completed recoveries final_size)
    results;
  Printf.printf "killed ranks: [%s]; simulated time %s\n"
    (String.concat "; " (List.map string_of_int report.Engine.killed))
    (Sim_time.to_string report.Engine.max_time)
