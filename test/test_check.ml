(* Tests for the Check sanitizer: collective call-order consistency,
   request lifecycle (leaks, double-waits, send-buffer integrity),
   deadlock wait-for-cycle diagnosis, wildcard-race detection, level
   parsing, and the zero-cost guarantee of the off level. *)

open Mpisim

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_counter report name =
  Stats.count (Stats.counter report.Engine.stats ("check." ^ name))

(* Run [f] expecting a [Check_violation] of class [cls], whether raised
   directly (finalize scans) or from inside a fiber (wrapped in
   [Scheduler.Aborted]).  Returns the violation message. *)
let expect_violation ~cls f =
  match f () with
  | _ -> Alcotest.failf "expected a %S check violation, run succeeded" cls
  | exception Errdefs.Check_violation { check = c; msg; _ } ->
      Alcotest.(check string) "check class" cls c;
      msg
  | exception Scheduler.Aborted { exn = Errdefs.Check_violation { check = c; msg; _ }; _ }
    ->
      Alcotest.(check string) "check class" cls c;
      msg

let run_light body = Engine.run ~model:Net_model.zero_cost ~check_level:Check.Light ~ranks:2 body

let run_heavy ?(ranks = 2) body =
  Engine.run ~model:Net_model.zero_cost ~check_level:Check.Heavy ~ranks body

(* --- collective consistency --- *)

let test_collective_kind_mismatch () =
  let msg =
    expect_violation ~cls:"collective" (fun () ->
        run_light (fun mpi ->
            if Comm.rank mpi = 0 then Coll.barrier mpi
            else ignore (Coll.allgather mpi Datatype.int [| 1 |])))
  in
  Alcotest.(check bool) "names both ops" true
    (contains ~needle:"barrier" msg && contains ~needle:"allgather" msg);
  Alcotest.(check bool) "names both ranks" true
    (contains ~needle:"rank 0" msg && contains ~needle:"rank 1" msg)

let test_collective_root_mismatch () =
  let msg =
    expect_violation ~cls:"collective" (fun () ->
        run_light (fun mpi ->
            let r = Comm.rank mpi in
            ignore (Coll.bcast mpi Datatype.int ~root:r (Some [| r |]))))
  in
  Alcotest.(check bool) "reports the roots" true
    (contains ~needle:"root=0" msg && contains ~needle:"root=1" msg)

let test_collective_type_mismatch () =
  let msg =
    expect_violation ~cls:"collective" (fun () ->
        run_light (fun mpi ->
            if Comm.rank mpi = 0 then
              ignore (Coll.allreduce mpi Datatype.int Reduce_op.int_sum [| 1 |])
            else ignore (Coll.allreduce mpi Datatype.float Reduce_op.float_sum [| 1. |])))
  in
  Alcotest.(check bool) "reports the element types" true
    (contains ~needle:"ty=int" msg && contains ~needle:"ty=float" msg)

(* A rank that skips a trailing collective is caught by the finalize-time
   count scan (the run itself completes because bcast's root sends
   eagerly). *)
let test_collective_count_mismatch () =
  let msg =
    expect_violation ~cls:"collective" (fun () ->
        run_light (fun mpi ->
            let r = Comm.rank mpi in
            ignore (Coll.bcast mpi Datatype.int ~root:0 (if r = 0 then Some [| 1 |] else None));
            if r = 0 then ignore (Coll.bcast mpi Datatype.int ~root:0 (Some [| 2 |]))))
  in
  Alcotest.(check bool) "reports a count mismatch" true
    (contains ~needle:"count mismatch" msg)

let test_collective_clean_heavy () =
  let report =
    run_heavy ~ranks:4 (fun mpi ->
        let r = Comm.rank mpi in
        Coll.barrier mpi;
        ignore (Coll.bcast mpi Datatype.int ~root:0 (if r = 0 then Some [| 7 |] else None));
        ignore (Coll.allgather mpi Datatype.int [| r |]);
        ignore (Coll.allreduce mpi Datatype.int Reduce_op.int_sum [| r |]))
  in
  Alcotest.(check int) "no mismatches" 0 (check_counter report "collective_mismatch")

(* --- request lifecycle --- *)

let test_request_leak () =
  let msg =
    expect_violation ~cls:"request-leak" (fun () ->
        run_light (fun mpi ->
            if Comm.rank mpi = 0 then
              (* Never waited: leaked. *)
              ignore (P2p.isend mpi Datatype.int ~dest:1 [| 1; 2; 3 |])
            else ignore (P2p.recv mpi Datatype.int ~source:0 ())))
  in
  Alcotest.(check bool) "names the isend" true (contains ~needle:"isend" msg)

let test_double_wait () =
  let msg =
    expect_violation ~cls:"double-wait" (fun () ->
        run_light (fun mpi ->
            if Comm.rank mpi = 0 then begin
              let req = P2p.isend mpi Datatype.int ~dest:1 [| 1 |] in
              ignore (Request.wait req);
              ignore (Request.wait req)
            end
            else ignore (P2p.recv mpi Datatype.int ~source:0 ())))
  in
  Alcotest.(check bool) "explains the rule" true (contains ~needle:"exactly once" msg)

(* Completion-on-inactive must be flagged whichever entry point it comes
   through: [test] and [wait_any] report exactly like [wait]. *)
let test_double_completion_via_test () =
  ignore
    (expect_violation ~cls:"double-wait" (fun () ->
         run_light (fun mpi ->
             if Comm.rank mpi = 0 then begin
               let req = P2p.isend mpi Datatype.int ~dest:1 [| 1 |] in
               ignore (Request.wait req);
               ignore (Request.test req)
             end
             else ignore (P2p.recv mpi Datatype.int ~source:0 ()))))

let test_double_completion_via_wait_any () =
  ignore
    (expect_violation ~cls:"double-wait" (fun () ->
         run_light (fun mpi ->
             if Comm.rank mpi = 0 then begin
               let req = P2p.isend mpi Datatype.int ~dest:1 [| 1 |] in
               ignore (Request.wait req);
               ignore (Request.wait_any [ req ])
             end
             else ignore (P2p.recv mpi Datatype.int ~source:0 ()))))

(* Pool drains and [forget]-shared handles complete requests internally;
   none of that may count as a double-wait or leak. *)
let test_nb_pool_clean () =
  let report =
    run_heavy (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let peer = 1 - r in
        let pool = Kamping.Request_pool.create () in
        for i = 0 to 2 do
          Kamping.Request_pool.add pool
            (Kamping.Nb.isend comm Datatype.int ~dest:peer [| i |])
        done;
        for _ = 0 to 2 do
          ignore (P2p.recv mpi Datatype.int ~source:peer ())
        done;
        ignore (Kamping.Request_pool.drain_completed pool);
        Kamping.Request_pool.wait_all pool)
  in
  Alcotest.(check int) "no double-waits" 0 (check_counter report "double_wait");
  Alcotest.(check int) "no leaks" 0 (check_counter report "request_leak")

let test_send_buffer_modified () =
  let msg =
    expect_violation ~cls:"send-buffer" (fun () ->
        run_heavy (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            if Comm.rank mpi = 0 then begin
              let data = [| 1; 2; 3 |] in
              let nb = Kamping.Nb.issend comm Datatype.int ~dest:1 data in
              (* Mutating a buffer whose ownership was transferred. *)
              data.(0) <- 99;
              ignore (Kamping.Nb.wait nb)
            end
            else ignore (P2p.recv mpi Datatype.int ~source:0 ())))
  in
  Alcotest.(check bool) "explains ownership" true (contains ~needle:"ownership" msg)

let test_send_buffer_clean () =
  let report =
    run_heavy (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        if Comm.rank mpi = 0 then begin
          let data = [| 1; 2; 3 |] in
          let nb = Kamping.Nb.isend comm Datatype.int ~dest:1 data in
          let returned = Kamping.Nb.wait nb in
          (* After completion the buffer is owned by the caller again. *)
          returned.(0) <- 99
        end
        else ignore (P2p.recv mpi Datatype.int ~source:0 ()))
  in
  Alcotest.(check int) "no false positive" 0 (check_counter report "send_buffer_modified")

(* --- deadlock diagnosis --- *)

let test_deadlock_recv_cycle () =
  match
    run_light (fun mpi ->
        let peer = 1 - Comm.rank mpi in
        ignore (P2p.recv mpi Datatype.int ~source:peer ~tag:3 ()))
  with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Errdefs.Mpi_error { code = Errdefs.Err_deadlock; msg } ->
      Alcotest.(check bool) "names a wait-for cycle" true
        (contains ~needle:"wait-for cycle" msg);
      Alcotest.(check bool) "edge names the operation" true
        (contains ~needle:"recv(src=1, tag=3" msg);
      Alcotest.(check bool) "both ranks appear" true
        (contains ~needle:"rank 0" msg && contains ~needle:"rank 1" msg)

let test_deadlock_ssend_cycle () =
  match
    run_light (fun mpi ->
        let peer = 1 - Comm.rank mpi in
        P2p.ssend mpi Datatype.int ~dest:peer [| 1 |])
  with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Errdefs.Mpi_error { code = Errdefs.Err_deadlock; msg } ->
      Alcotest.(check bool) "edge names the ssend" true
        (contains ~needle:"ssend(dst=" msg)

(* With the sanitizer off, the scheduler's plain exception is preserved. *)
let test_deadlock_check_off () =
  match
    Engine.run ~model:Net_model.zero_cost ~check_level:Check.Off ~ranks:2 (fun mpi ->
        let peer = 1 - Comm.rank mpi in
        ignore (P2p.recv mpi Datatype.int ~source:peer ()))
  with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Scheduler.Deadlock _ -> ()

(* --- wildcard races (heavy) --- *)

let test_wildcard_race () =
  let report =
    run_heavy (fun mpi ->
        if Comm.rank mpi = 0 then begin
          P2p.send mpi Datatype.int ~dest:1 ~tag:1 [| 10 |];
          P2p.send mpi Datatype.int ~dest:1 ~tag:2 [| 20 |];
          P2p.send mpi Datatype.int ~dest:1 ~tag:9 [| 0 |]
        end
        else begin
          (* The tag-9 receive orders us after both sends: the wildcard
             receive then has two eligible queued messages. *)
          ignore (P2p.recv mpi Datatype.int ~source:0 ~tag:9 ());
          ignore (P2p.recv mpi Datatype.int ());
          ignore (P2p.recv mpi Datatype.int ())
        end)
  in
  Alcotest.(check bool) "race recorded" true (check_counter report "wildcard_race" >= 1)

let test_wildcard_no_race () =
  let report =
    run_heavy (fun mpi ->
        if Comm.rank mpi = 0 then P2p.send mpi Datatype.int ~dest:1 [| 1 |]
        else ignore (P2p.recv mpi Datatype.int ()))
  in
  Alcotest.(check int) "single candidate is not a race" 0
    (check_counter report "wildcard_race")

(* --- levels --- *)

let test_level_parsing () =
  List.iter
    (fun l ->
      Alcotest.(check bool) "round trip" true
        (Check.level_of_string (Check.level_to_string l) = Some l))
    [ Check.Off; Check.Light; Check.Heavy ];
  Alcotest.(check bool) "garbage rejected" true (Check.level_of_string "max" = None)

(* The off level must be free on hot paths: the call-site pattern is one
   load and branch ([Check.enabled] / [Check.heavy]) with the hook's
   arguments never evaluated.  Same technique as the trace recorder's
   disabled-mode test. *)
let test_off_level_is_free () =
  let stats = Stats.create () in
  let clocks = [| 0.; 0.; 0.; 0. |] in
  let trace = Trace.create ~clocks in
  let chk = Check.create ~stats ~trace ~size:4 () in
  Alcotest.(check bool) "created off" false (Check.enabled chk);
  let allocated =
    Alloc.minor_words (fun () ->
        for i = 1 to 10_000 do
          if Check.enabled chk then
            Check.on_collective chk ~context:0 ~rank:0 ~world_rank:0 ~op:"allgather"
              ~root:(-1) ~ty:"int";
          if Check.enabled chk then
            Check.set_waiting chk ~rank:0
              (Check.Wrecv { src = i; tag = 0; ctx = 0; op = "recv" });
          if Check.enabled chk then Check.clear_waiting chk ~rank:0;
          if Check.heavy chk then
            Check.on_wildcard_match chk ~rank:0 ~src:(-1) ~tag:(-1) ~eligible:2
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f words for 40k guarded hook sites" allocated)
    true (allocated < 100.)

let () =
  Alcotest.run "check"
    [
      ( "check",
        [
          Alcotest.test_case "collective kind mismatch" `Quick test_collective_kind_mismatch;
          Alcotest.test_case "collective root mismatch" `Quick test_collective_root_mismatch;
          Alcotest.test_case "collective type mismatch" `Quick test_collective_type_mismatch;
          Alcotest.test_case "collective count mismatch" `Quick test_collective_count_mismatch;
          Alcotest.test_case "clean collectives under heavy" `Quick test_collective_clean_heavy;
          Alcotest.test_case "request leak" `Quick test_request_leak;
          Alcotest.test_case "double wait" `Quick test_double_wait;
          Alcotest.test_case "double completion via test" `Quick
            test_double_completion_via_test;
          Alcotest.test_case "double completion via wait_any" `Quick
            test_double_completion_via_wait_any;
          Alcotest.test_case "pool drain is not a double wait" `Quick test_nb_pool_clean;
          Alcotest.test_case "send buffer modified in flight" `Quick test_send_buffer_modified;
          Alcotest.test_case "send buffer clean after wait" `Quick test_send_buffer_clean;
          Alcotest.test_case "deadlock recv cycle" `Quick test_deadlock_recv_cycle;
          Alcotest.test_case "deadlock ssend cycle" `Quick test_deadlock_ssend_cycle;
          Alcotest.test_case "deadlock with check off" `Quick test_deadlock_check_off;
          Alcotest.test_case "wildcard race" `Quick test_wildcard_race;
          Alcotest.test_case "wildcard no race" `Quick test_wildcard_no_race;
          Alcotest.test_case "level parsing" `Quick test_level_parsing;
          Alcotest.test_case "off level is free" `Quick test_off_level_is_free;
        ] );
    ]
