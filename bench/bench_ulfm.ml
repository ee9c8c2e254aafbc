(* §V-B / Fig. 12: user-level failure mitigation.

   An iterative allreduce workload loses [n_failures] ranks mid-run; the
   survivors revoke, shrink, agree that the shrunken communicator is
   usable, resync the resume iteration, and finish.  We report the
   simulated cost of a recovery (revoke + shrink + agree + resync) as p
   grows.

   Runs use the Virtual_only clock, so every number is deterministic.
   Each row also goes to BENCH_ULFM.json with the profiled comm_shrink /
   comm_agree calls, for the bench-diff CI gate; [~smoke] runs
   p in {8, 16} only. *)

open Mpisim
module U = Kamping_plugins.Ulfm

let results_file = "BENCH_ULFM.json"

let iterations = 8

let run_once ~ranks ~n_failures : float * int * Engine.report =
  let recovery_time = ref 0. in
  let survivors = ref 0 in
  let report =
    Engine.run ~clock_mode:Runtime.Virtual_only ~ranks (fun mpi ->
        let comm = ref (Kamping.Communicator.of_mpi mpi) in
        let me = Comm.rank mpi in
        let iter = ref 1 in
        while !iter <= iterations do
          if !iter = 3 && me < n_failures + 1 && me > 0 then Fault.die mpi;
          let step () =
            Kamping.Collectives.allreduce_single !comm Datatype.int Reduce_op.int_sum 1
          in
          match U.detect step with
          | (_ : int) -> incr iter
          | exception U.Failure_detected _ ->
              let rt = Comm.runtime mpi in
              let t0 = Runtime.clock rt (Comm.world_rank mpi) in
              if not (U.is_revoked !comm) then U.revoke !comm;
              comm := U.shrink !comm;
              if not (U.agree !comm true) then failwith "ulfm bench: recovery not agreed";
              iter :=
                Kamping.Collectives.allreduce_single !comm Datatype.int Reduce_op.int_min
                  !iter;
              let t1 = Runtime.clock rt (Comm.world_rank mpi) in
              if me = 0 then recovery_time := t1 -. t0
        done;
        if me = 0 then survivors := Kamping.Communicator.size !comm)
  in
  (!recovery_time, !survivors, report)

let profiled_calls (report : Engine.report) op =
  match List.find_opt (fun (o, _, _) -> o = op) report.Engine.profile with
  | Some (_, calls, _) -> calls
  | None -> 0

let run ?(smoke = false) ?(max_p = 64) () =
  Bench_util.section
    "ULFM failure recovery (paper SV-B, Fig. 12): revoke + shrink + agree + resync cost";
  let ps =
    let max_p = if smoke then 16 else max_p in
    let rec go p acc = if p > max_p then List.rev acc else go (p * 2) (p :: acc) in
    go 8 []
  in
  let rows =
    List.map
      (fun p ->
        let t, survivors, report = run_once ~ranks:p ~n_failures:2 in
        let shrinks = profiled_calls report "comm_shrink" in
        let agrees = profiled_calls report "comm_agree" in
        Bench_util.emit_json_file ~file:results_file ~bench:"ulfm_recovery"
          [
            ("p", Bench_util.I p);
            ("survivors", Bench_util.I survivors);
            ("recovery_seconds", Bench_util.F t);
            ("comm_shrink_calls", Bench_util.I shrinks);
            ("comm_agree_calls", Bench_util.I agrees);
          ];
        [
          string_of_int p;
          string_of_int survivors;
          Bench_util.time_str t;
          string_of_int shrinks;
          string_of_int agrees;
        ])
      ps
  in
  Bench_util.print_table
    ~header:[ "p"; "survivors"; "recovery time (rank 0)"; "shrink calls"; "agree calls" ]
    rows
