(* Elastic task-queue benchmarks (DESIGN.md §10): throughput against a
   hand-rolled static schedule, and recovery latency under a worker kill.

   Both series are pure virtual-time measurements (Virtual_only clock,
   modelled network), so they are deterministic and safe for the
   bench-diff CI gate.

   - [throughput]: the same heterogeneous workload (per-task compute
     drawn from a hash, 1x..40x a base cost) run through the task queue
     in both modes versus the obvious hand-rolled alternative — a static
     round-robin partition plus one allgatherv of the results.  The
     static schedule eats the full cost imbalance of its partition; the
     queue pays protocol overhead (requests, leases, resync rounds) but
     balances.  Gate: fault-free queue makespan within 10% of the
     hand-rolled baseline (either mode may also simply win).

   - [recovery]: a worker is killed mid-run by a fault plan; the
     survivors revoke, shrink, agree and resume from their merged
     knowledge.  We report the per-round recovery cost observed by
     [Ulfm.run_with_recovery] (ulfm.recovery_seconds) and gate it
     against lease_timeout + one agreement round, the protocol's
     detection + commit budget.  The agreement round is calibrated by
     timing [Comm.agree] alone on the same communicator size. *)

open Mpisim
module C = Kamping.Communicator
module TQ = Kamping_plugins.Taskqueue

let results_file = "BENCH_TASKQUEUE.json"

(* Heterogeneous per-task compute: 1x..40x of [base] seconds, drawn from
   a counter-mode hash so every rank and every run agrees on the cost
   table without sharing state. *)
let base_cost = 2e-4

let task_cost id =
  base_cost *. float_of_int (1 + Xoshiro.hash_int ~seed:11 ~stream:0 ~counter:id ~bound:40)

let payload id = 1000 + id
let expected_result id = (payload id * payload id) + id

let check_results ~n (results : (int array * C.t) option array) killed =
  Array.iteri
    (fun r res ->
      match res with
      | Some (out, _) ->
          if Array.length out <> n then failwith "taskqueue bench: short result vector";
          Array.iteri
            (fun id v ->
              if v <> expected_result id then
                failwith (Printf.sprintf "taskqueue bench: wrong result for task %d" id))
            out
      | None ->
          if not (List.mem r killed) then
            failwith (Printf.sprintf "taskqueue bench: rank %d returned nothing" r))
    results

let run_queue ~mode ~p ~n ?chaos ?(lease_timeout = 0.5) ?(batch = 4) () : Engine.report =
  let cfg = TQ.config ~mode ~lease_timeout ~batch ~checkpoint_every:16 () in
  let tasks = Array.init n payload in
  let results, report =
    Engine.run_collect ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only
      ~check_level:Check.Off ?chaos ~ranks:p (fun mpi ->
        let comm = C.of_mpi mpi in
        let rt = C.runtime comm in
        let me = Comm.world_rank mpi in
        let exec id pay =
          Runtime.charge_compute rt me (task_cost id);
          (pay * pay) + id
        in
        TQ.run ~cfg comm ~task_codec:Serial.Codec.int ~result_codec:Serial.Codec.int
          ~tasks ~exec ())
  in
  check_results ~n results report.Engine.killed;
  report

(* The hand-rolled comparison: owner-computes on a static round-robin
   partition, then one counts-allgather + allgatherv so every rank holds
   the full result vector (the same postcondition the queue delivers). *)
let round_robin_makespan ~p ~n : float =
  let report =
    Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only ~ranks:p
      (fun mpi ->
        let rt = Comm.runtime mpi in
        let me = Comm.world_rank mpi in
        let mine = ref [] in
        for id = n - 1 downto 0 do
          if id mod p = me then begin
            Runtime.charge_compute rt me (task_cost id);
            mine := expected_result id :: !mine
          end
        done;
        let mine = Array.of_list !mine in
        let counts = Coll.allgather mpi Datatype.int [| Array.length mine |] in
        ignore (Coll.allgatherv mpi Datatype.int ~recv_counts:counts mine))
  in
  report.Engine.max_time

(* One agreement round on a p-rank communicator, for the recovery-latency
   budget. *)
let agree_round ~p : float =
  let report =
    Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only ~ranks:p
      (fun mpi ->
        let comm = C.of_mpi mpi in
        ignore (Kamping_plugins.Ulfm.agree comm true))
  in
  report.Engine.max_time

let hist_max stats name = Stats.max_value (Stats.histogram stats name)
let counter_count stats name = Stats.count (Stats.counter stats name)

let run ?(smoke = false) () =
  Bench_util.section
    "Elastic task queue (DESIGN.md \xC2\xA710): throughput vs static schedule, recovery latency";
  let gate_failures = ref [] in
  let gate name ok detail =
    Printf.printf "gate %-38s %s  (%s)\n" name (if ok then "PASS" else "FAIL") detail;
    if not ok then gate_failures := name :: !gate_failures
  in

  (* -- throughput -- *)
  let configs = if smoke then [ (8, 96) ] else [ (4, 64); (8, 128); (16, 256) ] in
  Printf.printf "\n-- fault-free makespan: task queue vs hand-rolled round-robin --\n";
  Bench_util.print_table
    ~header:[ "p"; "tasks"; "round-robin"; "master"; "nbx"; "master ovh"; "nbx ovh" ]
    (List.map
       (fun (p, n) ->
         let rr = round_robin_makespan ~p ~n in
         let overhead mode =
           (* batch=8 for the fault-free series: NBX rounds are bulk-
              synchronous, so each round costs a max over ranks; batches
              of 8 amortize that sync to a few percent while still
              running multiple rebalancing rounds.  (The default batch=4
              trades ~10% throughput for faster steal response.) *)
           let report = run_queue ~mode ~p ~n ~batch:8 () in
           let t = report.Engine.max_time in
           (t, (t -. rr) /. rr *. 100.)
         in
         let t_master, ovh_master = overhead TQ.Master_worker in
         let t_nbx, ovh_nbx = overhead TQ.Nbx in
         List.iter
           (fun (mode, t) ->
             Bench_util.emit_json_file ~file:results_file ~bench:"taskqueue_throughput"
               [
                 ("p", Bench_util.I p);
                 ("tasks", Bench_util.I n);
                 ("mode", Bench_util.S mode);
                 ("makespan_seconds", Bench_util.F t);
                 ("baseline_makespan_seconds", Bench_util.F rr);
               ])
           [ ("master", t_master); ("nbx", t_nbx) ];
         let best_ovh = Float.min ovh_master ovh_nbx in
         gate
           (Printf.sprintf "fault-free overhead <= 10%% (p=%d)" p)
           (best_ovh <= 10.)
           (Printf.sprintf "best mode %+.1f%% vs round-robin" best_ovh);
         [
           string_of_int p;
           string_of_int n;
           Bench_util.time_str rr;
           Bench_util.time_str t_master;
           Bench_util.time_str t_nbx;
           Printf.sprintf "%+.1f%%" ovh_master;
           Printf.sprintf "%+.1f%%" ovh_nbx;
         ])
       configs);
  Printf.printf
    "(Overhead gate takes the better mode: the queue must be within 10%% of the \
     static schedule; on skewed workloads it usually wins outright.)\n";

  (* -- recovery latency -- *)
  let lease_timeout = 2e-3 in
  let recovery_configs = if smoke then [ (8, 96) ] else [ (4, 64); (8, 128) ] in
  Printf.printf "\n-- recovery latency: one worker killed at its 3rd task --\n";
  Bench_util.print_table
    ~header:[ "p"; "tasks"; "recovery"; "agree round"; "budget"; "shrinks" ]
    (List.map
       (fun (p, n) ->
         let plan = Result.get_ok (Fault_plan.parse "fail=1@task:3") in
         let chaos = Chaos.config ~seed:5 ~plan () in
         let report = run_queue ~mode:TQ.Master_worker ~p ~n ~chaos ~lease_timeout () in
         if report.Engine.killed <> [ 1 ] then
           failwith "taskqueue bench: fault plan did not kill rank 1";
         let recovery = hist_max report.Engine.stats "ulfm.recovery_seconds" in
         let shrinks = counter_count report.Engine.stats "ulfm.shrinks" in
         let agree = agree_round ~p in
         let budget = lease_timeout +. agree in
         Bench_util.emit_json_file ~file:results_file ~bench:"taskqueue_recovery"
           [
             ("p", Bench_util.I p);
             ("tasks", Bench_util.I n);
             ("recovery_latency_seconds", Bench_util.F recovery);
             ("agree_round_seconds", Bench_util.F agree);
           ];
         gate
           (Printf.sprintf "recovery <= lease + agree round (p=%d)" p)
           (recovery > 0. && recovery <= budget)
           (Printf.sprintf "%s vs %s" (Bench_util.time_str recovery)
              (Bench_util.time_str budget));
         [
           string_of_int p;
           string_of_int n;
           Bench_util.time_str recovery;
           Bench_util.time_str agree;
           Bench_util.time_str budget;
           string_of_int shrinks;
         ])
       recovery_configs);
  Printf.printf
    "(Recovery is the worst detect->shrunken-communicator round observed by \
     run_with_recovery; the budget is the lease timeout plus one agreement round.)\n";

  if !gate_failures <> [] then begin
    Printf.printf "\ntaskqueue gates FAILED: %s\n" (String.concat ", " !gate_failures);
    Bench_util.record_failed_gates ~bench:"taskqueue" !gate_failures
  end
