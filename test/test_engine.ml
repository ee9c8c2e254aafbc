(* Tests for the engine and cost model: clock behaviour, determinism of
   virtual-only runs, deadlock diagnostics, network-model effects, and
   failure reporting. *)

open Mpisim

let test_clocks_monotone () =
  let report =
    Engine.run ~ranks:4 (fun comm ->
        ignore (Coll.allgather comm Datatype.int [| Comm.rank comm |]);
        Coll.barrier comm)
  in
  Array.iter
    (fun t -> Alcotest.(check bool) "non-negative" true (t >= 0.))
    report.Engine.times;
  Alcotest.(check bool) "max >= all" true
    (Array.for_all (fun t -> t <= report.Engine.max_time) report.Engine.times)

let test_virtual_only_deterministic () =
  let run () =
    let report =
      Engine.run ~clock_mode:Runtime.Virtual_only ~ranks:6 (fun comm ->
          ignore (Coll.allreduce_single comm Datatype.int Reduce_op.int_sum 1);
          ignore (Coll.alltoall comm Datatype.int (Array.make 6 (Comm.rank comm))))
    in
    report.Engine.times
  in
  Alcotest.(check bool) "bit-identical times across runs" true (run () = run ())

let test_model_scales_time () =
  let time model =
    let report =
      Engine.run ~model ~clock_mode:Runtime.Virtual_only ~ranks:4 (fun comm ->
          ignore (Coll.allgather comm Datatype.int (Array.make 1000 (Comm.rank comm))))
    in
    report.Engine.max_time
  in
  let fast = time Net_model.omnipath in
  let slow = time Net_model.ethernet in
  Alcotest.(check bool) "ethernet slower than omnipath" true (slow > fast);
  Alcotest.(check bool) "zero-cost model is free" true (time Net_model.zero_cost = 0.)

let test_message_cost_grows_with_size () =
  let time bytes =
    let report =
      Engine.run ~clock_mode:Runtime.Virtual_only ~ranks:2 (fun comm ->
          if Comm.rank comm = 0 then
            P2p.send comm Datatype.char ~dest:1 (Array.make bytes 'x')
          else ignore (P2p.recv comm Datatype.char ~source:0 ()))
    in
    report.Engine.max_time
  in
  Alcotest.(check bool) "1MB costs more than 1KB" true (time 1_000_000 > time 1_000)

let test_deadlock_diagnostics () =
  match
    Engine.run ~ranks:3 (fun comm ->
        if Comm.rank comm = 0 then ignore (P2p.recv comm Datatype.int ~source:1 ~tag:9 ()))
  with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Scheduler.Deadlock { parked; finished; total } ->
      Alcotest.(check int) "one parked" 1 (List.length parked);
      Alcotest.(check int) "two finished" 2 finished;
      Alcotest.(check int) "three total" 3 total;
      let rank, desc = List.hd parked in
      Alcotest.(check int) "rank 0 parked" 0 rank;
      Alcotest.(check bool) "description mentions the tag" true
        (let has_sub s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has_sub desc "tag 9")

let test_killed_ranks_reported () =
  let results, report =
    Engine.run_collect ~ranks:4 (fun comm ->
        if Comm.rank comm mod 2 = 1 then Fault.die comm else Comm.rank comm)
  in
  Alcotest.(check (list int)) "killed" [ 1; 3 ] report.Engine.killed;
  Alcotest.(check bool) "results of killed are None" true
    (results.(1) = None && results.(3) = None);
  Alcotest.(check bool) "survivors have values" true
    (results.(0) = Some 0 && results.(2) = Some 2)

let test_abort_propagates_user_exception () =
  match Engine.run ~ranks:3 (fun comm -> if Comm.rank comm = 2 then failwith "boom")
  with
  | _ -> Alcotest.fail "expected abort"
  | exception Scheduler.Aborted { rank; exn = Failure msg; _ } ->
      Alcotest.(check int) "failing rank" 2 rank;
      Alcotest.(check string) "message" "boom" msg
  | exception _ -> Alcotest.fail "wrong exception"

let test_measured_mode_charges_compute () =
  (* A rank that burns real CPU must end with a larger clock. *)
  let report =
    Engine.run ~ranks:2 (fun comm ->
        if Comm.rank comm = 0 then begin
          let acc = ref 0 in
          for i = 0 to 5_000_000 do
            acc := !acc + i
          done;
          ignore (Sys.opaque_identity !acc)
        end;
        Coll.barrier comm)
  in
  Alcotest.(check bool) "busy rank's time dominates" true
    (report.Engine.times.(0) > 0.)

let test_single_rank_runs () =
  let report =
    Engine.run ~ranks:1 (fun comm ->
        ignore (Coll.allgather comm Datatype.int [| 1 |]);
        ignore (Coll.allreduce_single comm Datatype.int Reduce_op.int_sum 1);
        ignore (Coll.alltoall comm Datatype.int [| 5 |]);
        Coll.barrier comm;
        ignore (Coll.bcast comm Datatype.int ~root:0 (Some [| 1 |])))
  in
  Alcotest.(check int) "one rank" 1 report.Engine.ranks

let test_profile_summary_populated () =
  let report =
    Engine.run ~ranks:2 (fun comm -> ignore (Coll.allgather comm Datatype.int [| 1 |]))
  in
  Alcotest.(check bool) "allgather recorded" true
    (List.exists (fun (op, c, _) -> op = "allgather" && c = 2) report.Engine.profile)


let test_custom_error_handler () =
  (* Errors_custom sees the failure before the exception propagates. *)
  let seen = ref None in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            Comm.set_errhandler comm
              (Errdefs.Errors_custom (fun code msg -> seen := Some (code, msg)));
            if Comm.rank comm = 0 then Fault.die comm
            else ignore (P2p.recv comm Datatype.int ~source:0 ())))
   with Scheduler.Aborted _ -> ());
  match !seen with
  | Some (Errdefs.Err_proc_failed, _) -> ()
  | Some (code, _) -> Alcotest.failf "wrong code: %s" (Errdefs.code_name code)
  | None -> Alcotest.fail "custom handler not invoked"

let test_timer_aggregate () =
  let results =
    Engine.run_values ~clock_mode:Runtime.Virtual_only ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let timer = Kamping.Timer.create comm in
        Kamping.Timer.time timer "compute" (fun () ->
            Runtime.charge_compute (Comm.runtime mpi) (Comm.world_rank mpi)
              (0.001 *. float_of_int (Comm.rank mpi + 1)));
        Kamping.Timer.time timer "exchange" (fun () ->
            ignore (Kamping.Collectives.allgather comm Datatype.int [| 1 |]));
        Kamping.Timer.aggregate timer)
  in
  let aggs = results.(0) in
  Alcotest.(check int) "two keys" 2 (List.length aggs);
  let compute = List.find (fun a -> a.Kamping.Timer.key = "compute") aggs in
  Alcotest.(check bool) "min is rank 0's 1ms" true
    (abs_float (compute.Kamping.Timer.min -. 0.001) < 1e-9);
  Alcotest.(check bool) "max is rank 3's 4ms" true
    (abs_float (compute.Kamping.Timer.max -. 0.004) < 1e-9);
  Alcotest.(check bool) "mean is 2.5ms" true
    (abs_float (compute.Kamping.Timer.mean -. 0.0025) < 1e-9)

let test_timer_misuse_rejected () =
  ignore
    (Engine.run ~ranks:1 (fun mpi ->
         let comm = Kamping.Communicator.of_mpi mpi in
         let timer = Kamping.Timer.create comm in
         (match Kamping.Timer.stop timer "never-started" with
         | () -> Alcotest.fail "expected Usage_error"
         | exception Errdefs.Usage_error _ -> ());
         Kamping.Timer.start timer "x";
         match Kamping.Timer.start timer "x" with
         | () -> Alcotest.fail "expected Usage_error"
         | exception Errdefs.Usage_error _ -> ()))

let test_assertion_level_compat () =
  ignore (Engine.run ~assertion_level:1 ~ranks:2 (fun _ -> ()));
  match Engine.run ~assertion_level:2 ~ranks:2 (fun _ -> ()) with
  | _ -> Alcotest.fail "expected Usage_error"
  | exception Errdefs.Usage_error msg ->
      Alcotest.(check bool) "points at check_level" true
        (let needle = "check_level" in
         let n = String.length needle in
         let rec scan i =
           i + n <= String.length msg && (String.sub msg i n = needle || scan (i + 1))
         in
         scan 0)

(* ------------------------------------------------------------------ *)
(* Independent runs on different domains share no state: communicator,
   agreement and datatype bookkeeping all live in the run (or in the type
   value), so concurrent runs reproduce their sequential results
   exactly. *)

(* Touches every kind of cross-rank bookkeeping a run keeps: split and
   dup (communicator table), a collective on the dup (its traffic in the
   dup's context), agree (agreement cells) and a derived type committed
   around an allgather. *)
let probe comm =
  let r = Comm.rank comm in
  let sub = Option.get (Comm_ops.split comm ~color:(r mod 2) ~key:r ()) in
  let dup = Comm_ops.dup sub in
  let gathered = Coll.allgather dup Datatype.int [| r + 1 |] in
  let agreed = Comm_ops.agree comm (r < Comm.size comm) in
  let pairs =
    Datatype.with_committed (Datatype.pair Datatype.int Datatype.int) (fun dt ->
        Coll.allgather comm dt [| (r, Comm.rank dup) |])
  in
  (gathered, agreed, pairs)

let probe_run () =
  let results, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~ranks:6 probe
  in
  (results, report.Engine.max_time, report.Engine.profile)

let concurrent_repeats = 200

let test_concurrent_runs_match_sequential () =
  let want_results, want_time, want_profile = probe_run () in
  let many () = List.init concurrent_repeats (fun _ -> probe_run ()) in
  List.iter
    (List.iter (fun (results, max_time, profile) ->
         Alcotest.(check bool) "results" true (results = want_results);
         Alcotest.(check (float 0.)) "max_time" want_time max_time;
         Alcotest.(check (list (triple string int int))) "profile" want_profile profile))
    (Engine.run_many [ many; many ]);
  Alcotest.(check int) "no derived type left committed" 0 (Datatype.live_derived_count ())

(* Wait slots belong to their run.  Each rank of [ring_deadlock ~tag]
   passes messages around a ring for a while (parking and waking), then
   waits for a [tag] message its neighbour never sends: the deadlock
   report must name exactly those receives, whatever else runs beside it
   on another domain or ran before it on this one. *)
let ring_deadlock ?(before = fun _ -> ()) ~ranks ~tag () =
  let ctx = ref (-1) in
  match
    Engine.run ~clock_mode:Runtime.Virtual_only ~ranks (fun comm ->
        let n = Comm.size comm and r = Comm.rank comm in
        ctx := Comm.context comm;
        before comm;
        for round = 1 to 20 do
          P2p.send comm Datatype.int ~dest:((r + 1) mod n) ~tag:round [| r |];
          ignore (P2p.recv comm Datatype.int ~source:((r + n - 1) mod n) ~tag:round ())
        done;
        ignore (P2p.recv comm Datatype.int ~source:((r + 1) mod n) ~tag ()))
  with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Scheduler.Deadlock { parked; _ } ->
      let want =
        List.init ranks (fun r ->
            ( r,
              Printf.sprintf "recv on rank %d (ctx %d, src %d, tag %d)" r !ctx
                ((r + 1) mod ranks) tag ))
      in
      (want, parked)

let check_own_waits (want, parked) =
  Alcotest.(check (list (pair int string))) "parked with its own waits" want parked

let test_concurrent_deadlocks_keep_their_waits () =
  let many ~ranks ~tag () = List.init 50 (fun _ -> ring_deadlock ~ranks ~tag ()) in
  List.iter (List.iter check_own_waits)
    (Engine.run_many [ many ~ranks:2 ~tag:11; many ~ranks:3 ~tag:22 ])

(* A fiber that raises aborts its run, in the middle of other fibers'
   waits, and here once inside another run's fiber: the runs after it
   still park, wake and describe their own waits. *)
let raising_run () =
  match
    Engine.run ~ranks:2 (fun comm ->
        if Comm.rank comm = 0 then ignore (P2p.recv comm Datatype.int ~source:1 ~tag:5 ())
        else begin
          Scheduler.yield ();
          failwith "boom"
        end)
  with
  | _ -> Alcotest.fail "expected abort"
  | exception Scheduler.Aborted { exn = Failure _; _ } -> ()

let test_run_after_raise_keeps_its_waits () =
  raising_run ();
  check_own_waits (ring_deadlock ~ranks:3 ~tag:7 ());
  let inner = ref None in
  let nest comm =
    if Comm.rank comm = 0 then begin
      raising_run ();
      inner := Some (ring_deadlock ~ranks:2 ~tag:8 ())
    end
  in
  (* The outer run's fibers park, wake and deadlock after the inner runs. *)
  check_own_waits (ring_deadlock ~before:nest ~ranks:2 ~tag:10 ());
  check_own_waits (Option.get !inner);
  check_own_waits (ring_deadlock ~ranks:2 ~tag:9 ())

(* Rank 0 drains one message from every other rank with fully wildcard
   receives; oldest-first arbitration fixes the order. *)
let wildcard_drain comm =
  if Comm.rank comm = 0 then
    List.init (Comm.size comm - 1) (fun _ ->
        let d, st = P2p.recv comm Datatype.int () in
        (d.(0), Status.source st))
  else begin
    P2p.send comm Datatype.int ~dest:0 ~tag:(Comm.rank comm) [| 10 * Comm.rank comm |];
    []
  end

let test_explore_leaves_other_runs_undeferred () =
  let drain () = fst (Engine.run_collect ~ranks:4 wildcard_drain) in
  let prog = Option.get (Progs.find "wildcard_race") in
  let explore () = Explore.explore ~ranks:2 prog.Progs.body in
  let summary r =
    ( r.Explore.explored,
      r.Explore.max_branching,
      List.map (fun v -> (v.Explore.v_class, v.Explore.v_script)) r.Explore.violations )
  in
  let want_drain = drain () in
  let want_explore = summary (explore ()) in
  let explorer () = Either.Left (List.init concurrent_repeats (fun _ -> summary (explore ()))) in
  let plain () = Either.Right (List.init concurrent_repeats (fun _ -> drain ())) in
  List.iter
    (function
      | Either.Left explored ->
          List.iter
            (fun got ->
              Alcotest.(check bool) "explorer result unchanged" true (got = want_explore))
            explored
      | Either.Right drained ->
          List.iter
            (fun got ->
              Alcotest.(check bool) "plain run matches sequential" true (got = want_drain))
            drained)
    (Engine.run_many [ explorer; plain ])

let tests =
  [
    Alcotest.test_case "clocks monotone" `Quick test_clocks_monotone;
    Alcotest.test_case "virtual-only determinism" `Quick test_virtual_only_deterministic;
    Alcotest.test_case "model scales time" `Quick test_model_scales_time;
    Alcotest.test_case "cost grows with size" `Quick test_message_cost_grows_with_size;
    Alcotest.test_case "deadlock diagnostics" `Quick test_deadlock_diagnostics;
    Alcotest.test_case "killed ranks reported" `Quick test_killed_ranks_reported;
    Alcotest.test_case "abort propagates exception" `Quick test_abort_propagates_user_exception;
    Alcotest.test_case "measured mode charges compute" `Quick
      test_measured_mode_charges_compute;
    Alcotest.test_case "single-rank collectives" `Quick test_single_rank_runs;
    Alcotest.test_case "profile summary" `Quick test_profile_summary_populated;
    Alcotest.test_case "custom error handler" `Quick test_custom_error_handler;
    Alcotest.test_case "timer aggregate" `Quick test_timer_aggregate;
    Alcotest.test_case "timer misuse rejected" `Quick test_timer_misuse_rejected;
    Alcotest.test_case "assertion_level is compatibility only" `Quick
      test_assertion_level_compat;
    Alcotest.test_case "concurrent runs match sequential" `Quick
      test_concurrent_runs_match_sequential;
    Alcotest.test_case "concurrent deadlocks keep their waits" `Quick
      test_concurrent_deadlocks_keep_their_waits;
    Alcotest.test_case "run after a raise keeps its waits" `Quick
      test_run_after_raise_keeps_its_waits;
    Alcotest.test_case "explore leaves other runs undeferred" `Quick
      test_explore_leaves_other_runs_undeferred;
  ]

let () = Alcotest.run "engine" [ ("engine", tests) ]
