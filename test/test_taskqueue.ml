(* Elastic task-queue plugin: exactly-once execution in both scheduling
   modes, straggler re-dispatch with duplicate suppression, dependency
   ordering, rate limiting, chaos/rank-death recovery (worker and master),
   replay determinism, and the headline randomized property. *)

open Mpisim
module C = Kamping.Communicator
module TQ = Kamping_plugins.Taskqueue

(* Deterministic workload: task [id] carries payload [1000 + id], costs a
   per-task modelled compute time, and yields [payload * payload + id].
   The cost function is where straggler tests inject slowness. *)
let payloads n = Array.init n (fun i -> 1000 + i)

let expected n = Array.init n (fun i -> ((1000 + i) * (1000 + i)) + i)

let default_cost _id = 2e-5

let run_queue ?chaos ?deps ?(cost = default_cost) ?(assert_deps = false) ~cfg ~p ~n () =
  let tasks = payloads n in
  let dep_table = match deps with Some d -> d | None -> Array.make n [] in
  (* Shared across fibers (one process): lets [exec] assert that every
     dependency finished before a dependent starts, on whatever rank. *)
  let finished = Array.make n false in
  Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
    ~check_level:Check.Heavy ?chaos ~ranks:p (fun mpi ->
      let comm = C.of_mpi mpi in
      let rt = C.runtime comm in
      let me = Comm.world_rank mpi in
      let exec id payload =
        if assert_deps then
          List.iter
            (fun dep ->
              if not finished.(dep) then
                Alcotest.failf "task %d started before dependency %d finished" id dep)
            dep_table.(id);
        Runtime.charge_compute rt me (cost id);
        finished.(id) <- true;
        (payload * payload) + id
      in
      TQ.run ~cfg comm ~task_codec:Serial.Codec.int ~result_codec:Serial.Codec.int ?deps
        ~tasks ~exec ())

let count report name = Stats.count (Stats.counter report.Engine.stats name)

let check_results ~p ~n (results, report) =
  let exp = expected n in
  let seen = ref false in
  for r = 0 to p - 1 do
    match results.(r) with
    | Some (out, _comm) ->
        seen := true;
        Alcotest.(check (array int)) (Printf.sprintf "rank %d results" r) exp out
    | None ->
        if not (List.mem r report.Engine.killed) then
          Alcotest.failf "surviving rank %d has no result" r
  done;
  Alcotest.(check bool) "at least one survivor" true !seen;
  report

(* --- Fault-free basics --- *)

let test_master_basic () =
  let cfg = TQ.config ~lease_timeout:1.0 () in
  let report = check_results ~p:4 ~n:25 (run_queue ~cfg ~p:4 ~n:25 ()) in
  Alcotest.(check int) "each task executed once" 25 (count report "taskqueue.completed");
  Alcotest.(check int) "each task dispatched once" 25 (count report "taskqueue.dispatched");
  Alcotest.(check int) "no duplicates" 0 (count report "taskqueue.duplicates_suppressed");
  Alcotest.(check int) "no expiries" 0 (count report "taskqueue.leases_expired")

let test_nbx_basic () =
  let cfg = TQ.config ~mode:TQ.Nbx ~batch:3 () in
  let report = check_results ~p:4 ~n:25 (run_queue ~cfg ~p:4 ~n:25 ()) in
  Alcotest.(check int) "each task executed once" 25 (count report "taskqueue.completed");
  Alcotest.(check int) "no duplicates" 0 (count report "taskqueue.duplicates_suppressed")

let test_single_rank () =
  let cfg = TQ.config ~lease_timeout:1.0 () in
  let report = check_results ~p:1 ~n:9 (run_queue ~cfg ~p:1 ~n:9 ()) in
  Alcotest.(check int) "alone: all executed locally" 9 (count report "taskqueue.completed")

(* --- Dependencies: a chain and a diamond, asserted at execution time --- *)

let dag_deps n =
  Array.init n (fun i ->
      if i = 0 then []
      else if i mod 3 = 0 then [ i - 1; i / 2 ]
      else if i mod 5 = 0 then [ i - 1 ]
      else [])

let test_deps_master () =
  let n = 24 in
  let cfg = TQ.config ~lease_timeout:1.0 () in
  ignore
    (check_results ~p:3 ~n
       (run_queue ~cfg ~deps:(dag_deps n) ~assert_deps:true ~p:3 ~n ()))

let test_deps_nbx () =
  let n = 24 in
  let cfg = TQ.config ~mode:TQ.Nbx ~batch:2 () in
  ignore
    (check_results ~p:3 ~n
       (run_queue ~cfg ~deps:(dag_deps n) ~assert_deps:true ~p:3 ~n ()))

let test_bad_deps_rejected () =
  let cfg = TQ.config () in
  match run_queue ~cfg ~deps:[| []; [ 1 ] |] ~p:1 ~n:2 () with
  | _ -> Alcotest.fail "forward dependency accepted"
  | exception Scheduler.Aborted { exn = Errdefs.Usage_error _; _ }
  | exception Errdefs.Usage_error _ ->
      ()

(* --- Stragglers: a slow task outlives its lease, is re-dispatched, and
   the late original result is suppressed --- *)

let test_straggler_redispatch () =
  let n = 12 in
  let cost id = if id = 5 then 0.05 else 1e-3 in
  let cfg = TQ.config ~lease_timeout:4e-3 () in
  let report = check_results ~p:3 ~n (run_queue ~cfg ~cost ~p:3 ~n ()) in
  let completed = count report "taskqueue.completed" in
  Alcotest.(check bool) "lease expired" true (count report "taskqueue.leases_expired" > 0);
  Alcotest.(check bool) "task re-dispatched" true
    (count report "taskqueue.redispatched" > 0);
  Alcotest.(check bool) "extra executions happened" true (completed > n);
  (* Accounting: every surplus execution's result was suppressed at least
     once on its way into an authoritative store. *)
  Alcotest.(check bool) "surplus executions suppressed" true
    (count report "taskqueue.duplicates_suppressed" >= completed - n)

(* --- Token-bucket rate limiter --- *)

let test_rate_limiter () =
  let n = 10 in
  let cfg = TQ.config ~lease_timeout:1.0 ~rate:500. ~burst:1 () in
  let report = check_results ~p:2 ~n (run_queue ~cfg ~p:2 ~n ()) in
  Alcotest.(check bool) "dispatch was throttled" true
    (count report "taskqueue.throttled" > 0)

(* --- fail=R@task:K: a worker dies starting its K-th task --- *)

let chaos_of spec = Chaos.config ~plan:(Result.get_ok (Fault_plan.parse spec)) ()

let test_task_trigger_kill_master () =
  let cfg = TQ.config ~lease_timeout:1.0 ~checkpoint_every:2 () in
  let r = run_queue ~chaos:(chaos_of "fail=1@task:2") ~cfg ~p:3 ~n:14 () in
  let report = check_results ~p:3 ~n:14 r in
  Alcotest.(check (list int)) "worker 1 died" [ 1 ] report.Engine.killed;
  Alcotest.(check bool) "recovery shrank the comm" true (count report "ulfm.shrinks" > 0)

let test_task_trigger_kill_nbx () =
  let cfg = TQ.config ~mode:TQ.Nbx ~batch:2 () in
  let r = run_queue ~chaos:(chaos_of "fail=2@task:3") ~cfg ~p:4 ~n:16 () in
  let report = check_results ~p:4 ~n:16 r in
  Alcotest.(check (list int)) "worker 2 died" [ 2 ] report.Engine.killed;
  Alcotest.(check bool) "recovery shrank the comm" true (count report "ulfm.shrinks" > 0)

(* --- Master death: rank 0 dies mid-run; a survivor is re-elected master
   and resumes from gathered knowledge without losing recorded results --- *)

let test_master_death () =
  let cfg = TQ.config ~lease_timeout:1.0 ~checkpoint_every:1 () in
  let r = run_queue ~chaos:(chaos_of "fail=0@ops:60") ~cfg ~p:3 ~n:16 () in
  let report = check_results ~p:3 ~n:16 r in
  Alcotest.(check (list int)) "master died" [ 0 ] report.Engine.killed;
  Alcotest.(check bool) "recovery ran" true (count report "ulfm.shrinks" > 0);
  (* Satellite: run_with_recovery feeds the recovery-latency histogram. *)
  Alcotest.(check bool) "recovery time observed" true
    (Stats.total (Stats.histogram report.Engine.stats "ulfm.recovery_seconds") > 0)

(* --- Replay determinism: same seed + plan => byte-identical chaos log
   and identical results, in both modes --- *)

let replay_once mode =
  let cfg =
    match mode with
    | TQ.Master_worker -> TQ.config ~lease_timeout:3e-3 ~checkpoint_every:3 ()
    | TQ.Nbx -> TQ.config ~mode:TQ.Nbx ~batch:2 ()
  in
  let chaos =
    Chaos.config ~seed:77 ~rates:Chaos.Lossy
      ~plan:(Result.get_ok (Fault_plan.parse "fail=2@task:4"))
      ()
  in
  let results, report = run_queue ~chaos ~cfg ~p:4 ~n:18 () in
  let outs =
    Array.map (function Some (out, _) -> Some (Array.to_list out) | None -> None) results
  in
  ( outs,
    (match report.Engine.chaos_log with
    | Some l -> l
    | None -> Alcotest.fail "chaos log missing"),
    report )

let test_replay_deterministic mode () =
  let o1, l1, _ = replay_once mode in
  let o2, l2, _ = replay_once mode in
  Alcotest.(check bool) "log is non-trivial" true (String.length l1 > 0);
  Alcotest.(check string) "byte-identical chaos log" l1 l2;
  Alcotest.(check bool) "identical results across replays" true (o1 = o2)

(* --- Headline property (ISSUE 9 acceptance): random task DAGs, random
   fault plans (worker and master deaths, link drops, lossy jitter), both
   modes — every surviving rank gets the full, correct result vector, or
   the run fails cleanly.  Never a deadlock, never a wrong or partial
   committed result, regardless of the fault schedule. --- *)

let qcheck_count =
  match int_of_string_opt (try Sys.getenv "TASKQUEUE_QCHECK_COUNT" with Not_found -> "") with
  | Some n when n > 0 -> n
  | _ -> 120

let prop_exactly_once_under_chaos =
  QCheck.Test.make ~name:"taskqueue: exactly-once under chaos" ~count:qcheck_count
    QCheck.(quad (Arb.ranks 2 5) (int_bound 100_000) bool (int_bound 5))
    (fun (p, seed, nbx, plan_kind) ->
      let n = 8 + (seed mod 22) in
      let victim = 1 + (seed mod (p - 1)) in
      let ops = 20 + (seed mod 60) in
      let plan_spec =
        match plan_kind with
        | 0 -> "" (* pure lossy: drops, duplicates, corruption, jitter *)
        | 1 -> Printf.sprintf "fail=%d@task:%d" victim (1 + (seed mod 4))
        | 2 -> Printf.sprintf "fail=0@ops:%d" ops (* master / rank-0 death *)
        | 3 ->
            Printf.sprintf "fail=%d@task:%d;fail=%d@ops:%d" victim
              (1 + (seed mod 3))
              ((victim mod (p - 1)) + 1)
              (ops * 2)
        | 4 -> Printf.sprintf "droplink=0>%d@%d" victim (1 + (seed mod 5))
        | _ -> Printf.sprintf "fail=%d@t:%g" victim (float_of_int (1 + (seed mod 50)) *. 1e-5)
      in
      let plan =
        match Fault_plan.parse plan_spec with
        | Ok pl -> pl
        | Error e -> Alcotest.failf "bad generated plan %S: %s" plan_spec e
      in
      let chaos = Chaos.config ~seed ~rates:Chaos.Lossy ~plan ~max_retries:10 () in
      let deps =
        Array.init n (fun i ->
            if i > 0 && Xoshiro.hash_int ~seed ~stream:9 ~counter:i ~bound:4 = 0 then
              [ Xoshiro.hash_int ~seed ~stream:10 ~counter:i ~bound:i ]
            else [])
      in
      let cfg =
        TQ.config
          ~mode:(if nbx then TQ.Nbx else TQ.Master_worker)
          ~lease_timeout:(if seed mod 2 = 0 then 2e-3 else 0.5)
          ~batch:(1 + (seed mod 4))
          ~checkpoint_every:(1 + (seed mod 5))
          ~max_in_flight:(1 + (seed mod 8))
          ~max_recovery_retries:12 ()
      in
      let cost id =
        2e-5 *. float_of_int (1 + Xoshiro.hash_int ~seed ~stream:11 ~counter:id ~bound:40)
      in
      match run_queue ~chaos ~deps ~cost ~cfg ~p ~n () with
      | results, report ->
          let exp = Array.to_list (expected n) in
          let ok = ref true in
          for r = 0 to p - 1 do
            match results.(r) with
            | Some (out, _) -> if Array.to_list out <> exp then ok := false
            | None -> if not (List.mem r report.Engine.killed) then ok := false
          done;
          (* Exactly-once accounting: when nobody died, every surplus
             execution's result reaches a store and must be suppressed
             there.  (A rank dying between executing and reporting takes
             its surplus result to the grave — nothing to suppress.) *)
          let completed = count report "taskqueue.completed" in
          let suppressed = count report "taskqueue.duplicates_suppressed" in
          !ok
          && Array.exists (fun r -> r <> None) results
          && (report.Engine.killed <> [] || suppressed >= completed - n)
      | exception Scheduler.Aborted { exn = Errdefs.Mpi_error { code; _ }; _ }
        when code <> Errdefs.Err_deadlock ->
          true (* a clean, typed failure is an acceptable outcome *)
      | exception Scheduler.Aborted { exn = Kamping_plugins.Ulfm.Failure_detected _; _ } ->
          true (* recovery retries exhausted: clean give-up, not a hang *)
      | exception Errdefs.Mpi_error { code; _ } when code <> Errdefs.Err_deadlock -> true)

let () =
  Alcotest.run "taskqueue"
    [
      ( "basics",
        [
          Alcotest.test_case "master/worker fault-free" `Quick test_master_basic;
          Alcotest.test_case "nbx fault-free" `Quick test_nbx_basic;
          Alcotest.test_case "single-rank communicator" `Quick test_single_rank;
        ] );
      ( "deps",
        [
          Alcotest.test_case "DAG order respected (master)" `Quick test_deps_master;
          Alcotest.test_case "DAG order respected (nbx)" `Quick test_deps_nbx;
          Alcotest.test_case "forward dependency rejected" `Quick test_bad_deps_rejected;
        ] );
      ( "elasticity",
        [
          Alcotest.test_case "straggler re-dispatch + suppression" `Quick
            test_straggler_redispatch;
          Alcotest.test_case "token-bucket throttling" `Quick test_rate_limiter;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fail@task kills worker (master)" `Quick
            test_task_trigger_kill_master;
          Alcotest.test_case "fail@task kills worker (nbx)" `Quick
            test_task_trigger_kill_nbx;
          Alcotest.test_case "master death and re-election" `Quick test_master_death;
        ] );
      ( "replay",
        [
          Alcotest.test_case "deterministic replay (master)" `Quick
            (test_replay_deterministic TQ.Master_worker);
          Alcotest.test_case "deterministic replay (nbx)" `Quick
            (test_replay_deterministic TQ.Nbx);
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_exactly_once_under_chaos ] );
    ]
