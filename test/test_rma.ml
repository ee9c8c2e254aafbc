(* Tests for one-sided communication (RMA windows). *)

open Mpisim

let test_put_visible_after_fence () =
  let results =
    Engine.run_values ~ranks:4 (fun comm ->
        let win = Rma.create comm Datatype.int (Array.make 4 0) in
        let r = Comm.rank comm in
        (* Everyone puts its rank into slot r of its right neighbor. *)
        Rma.put win ~target:((r + 1) mod 4) ~target_pos:r [| r |];
        Rma.fence win;
        let v = Array.copy (Rma.local win) in
        Rma.free win;
        v)
  in
  Array.iteri
    (fun r v ->
      let left = (r + 3) mod 4 in
      let expected = Array.make 4 0 in
      expected.(left) <- left;
      Alcotest.(check (array int)) (Printf.sprintf "rank %d" r) expected v)
    results

let test_get_after_fence () =
  let results =
    Engine.run_values ~ranks:3 (fun comm ->
        let r = Comm.rank comm in
        let win = Rma.create comm Datatype.int (Array.init 3 (fun i -> (r * 10) + i)) in
        Rma.fence win;
        (* read slot 1 of every peer *)
        let into = Array.make 3 (-1) in
        for t = 0 to 2 do
          Rma.get win ~target:t ~target_pos:1 ~count:1 into ~into_pos:t
        done;
        Rma.fence win;
        Rma.free win;
        into)
  in
  Array.iter
    (fun v -> Alcotest.(check (array int)) "gathered slot 1" [| 1; 11; 21 |] v)
    results

let test_accumulate_concurrent () =
  (* All ranks accumulate into rank 0's slot: the sum must include every
     contribution exactly once regardless of order. *)
  let results =
    Engine.run_values ~ranks:8 (fun comm ->
        let win = Rma.create comm Datatype.int (Array.make 1 100) in
        Rma.accumulate win ~target:0 ~target_pos:0 Reduce_op.int_sum
          [| Comm.rank comm + 1 |];
        Rma.fence win;
        let v = (Rma.local win).(0) in
        Rma.free win;
        v)
  in
  Alcotest.(check int) "rank 0 accumulated all" (100 + 36) results.(0);
  Alcotest.(check int) "rank 1 untouched" 100 results.(1)

let test_put_get_epochs_isolated () =
  (* Operations queued after a fence do not affect reads before it. *)
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let r = Comm.rank comm in
        let win = Rma.create comm Datatype.int (Array.make 1 r) in
        Rma.fence win;
        let before = (Rma.local win).(0) in
        if r = 0 then Rma.put win ~target:1 ~target_pos:0 [| 99 |];
        Rma.fence win;
        let after = (Rma.local win).(0) in
        Rma.free win;
        (before, after))
  in
  Alcotest.(check (pair int int)) "rank 1 sees the put only after the fence" (1, 99)
    results.(1)

let test_deterministic_overlapping_puts () =
  (* Two ranks put to the same slot in one epoch: the deterministic order
     (by origin rank) makes the higher origin win, every run. *)
  let run () =
    (Engine.run_values ~ranks:3 (fun comm ->
         let r = Comm.rank comm in
         let win = Rma.create comm Datatype.int (Array.make 1 0) in
         if r = 1 then Rma.put win ~target:0 ~target_pos:0 [| 111 |];
         if r = 2 then Rma.put win ~target:0 ~target_pos:0 [| 222 |];
         Rma.fence win;
         let v = (Rma.local win).(0) in
         Rma.free win;
         v)).(0)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "deterministic" a b;
  Alcotest.(check int) "last origin wins" 222 a

let test_multiple_windows () =
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let r = Comm.rank comm in
        let w1 = Rma.create comm Datatype.int (Array.make 1 0) in
        let w2 = Rma.create comm Datatype.int (Array.make 1 0) in
        if r = 0 then begin
          Rma.put w1 ~target:1 ~target_pos:0 [| 7 |];
          Rma.put w2 ~target:1 ~target_pos:0 [| 8 |]
        end;
        Rma.fence w1;
        Rma.fence w2;
        let v = ((Rma.local w1).(0), (Rma.local w2).(0)) in
        Rma.free w1;
        Rma.free w2;
        v)
  in
  Alcotest.(check (pair int int)) "windows independent" (7, 8) results.(1)

(* ------------------------------------------------------------------ *)
(* Many windows in one run, two alive at a time: each create must find
   its own shared state and each free must release it, so a long
   create/fence/free loop keeps every window's contents independent of
   its neighbours and leaves no rendezvous cell open on the communicator. *)

let test_many_windows_one_run () =
  let n = 4 in
  let fill ~me w i = Rma.put w ~target:((me + 1) mod n) ~target_pos:me [| (i * 100) + me |] in
  let holds ~me w i =
    let left = (me + n - 1) mod n in
    let want j = if j = left then (i * 100) + left else -1 in
    Array.for_all Fun.id (Array.mapi (fun j v -> v = want j) (Rma.local w))
  in
  let results =
    Engine.run_values ~ranks:n (fun comm ->
        let me = Comm.rank comm in
        let ok = ref true in
        let prev = ref (Rma.create comm Datatype.int (Array.make n (-1)), 0) in
        fill ~me (fst !prev) 0;
        for i = 1 to 120 do
          let w = Rma.create comm Datatype.int (Array.make n (-1)) in
          fill ~me w i;
          Rma.fence w;
          Rma.fence (fst !prev);
          let pw, pi = !prev in
          if not (holds ~me w i && holds ~me pw pi) then ok := false;
          Rma.free pw;
          prev := (w, i)
        done;
        Rma.free (fst !prev);
        Coll.barrier comm;
        (!ok, comm.Comm.shared.Comm.cells))
  in
  Array.iter
    (fun (ok, cells) ->
      Alcotest.(check bool) "every window saw only its own puts" true ok;
      Alcotest.(check int) "no rendezvous cell open after the run" 0 (Hashtbl.length cells))
    results

(* Regression: gets must charge the promised round trip at the closing
   fence (they used to move no clock at all). *)

let test_get_charges_round_trip () =
  let time_with gets =
    let report =
      Engine.run ~clock_mode:Runtime.Virtual_only ~ranks:2 (fun comm ->
          let win = Rma.create comm Datatype.int (Array.make 8 1) in
          Rma.fence win;
          (if Comm.rank comm = 0 then
             let into = Array.make 8 0 in
             for _ = 1 to gets do
               Rma.get win ~target:1 ~target_pos:0 ~count:8 into ~into_pos:0
             done);
          Rma.fence win;
          Rma.free win)
    in
    report.Engine.max_time
  in
  let quiet = time_with 0 and loaded = time_with 50 in
  Alcotest.(check bool)
    (Printf.sprintf "gets advance modeled time (%g vs %g)" quiet loaded)
    true (loaded > quiet)

(* Regression: out-of-range operations must raise the named
   ERR_RMA_RANGE at issue time (they used to surface as a raw
   [Invalid_argument] from a blit inside [fence]), and count under the
   sanitizer. *)

let test_out_of_range_put () =
  let rt_ref = ref None in
  (try
     ignore
       (Engine.run ~model:Net_model.zero_cost ~check_level:Check.Light
          ~on_runtime:(fun rt -> rt_ref := Some rt)
          ~ranks:2
          (fun comm ->
            let win = Rma.create comm Datatype.int (Array.make 4 0) in
            Rma.put win ~target:1 ~target_pos:3 [| 1; 2 |];
            Rma.fence win;
            Rma.free win));
     Alcotest.fail "expected ERR_RMA_RANGE"
   with
  | Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_rma_range; _ }; _ }
    ->
      ());
  match !rt_ref with
  | None -> Alcotest.fail "on_runtime not called"
  | Some rt ->
      Alcotest.(check bool)
        "check.rma_range counted" true
        (Stats.count (Stats.counter rt.Runtime.stats "check.rma_range") >= 1)

let test_out_of_range_get_and_accumulate () =
  let expect_range body =
    try
      ignore (Engine.run ~model:Net_model.zero_cost ~ranks:2 body);
      Alcotest.fail "expected ERR_RMA_RANGE"
    with
    | Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_rma_range; _ }; _ }
      ->
        ()
  in
  expect_range (fun comm ->
      let win = Rma.create comm Datatype.int (Array.make 4 0) in
      let into = Array.make 8 0 in
      Rma.get win ~target:1 ~target_pos:(-1) ~count:2 into ~into_pos:0;
      Rma.fence win);
  expect_range (fun comm ->
      let win = Rma.create comm Datatype.int (Array.make 4 0) in
      Rma.accumulate win ~target:1 ~target_pos:4 Reduce_op.int_sum [| 1 |];
      Rma.fence win)

(* ------------------------------------------------------------------ *)
(* Passive target: lock/unlock epochs *)

let test_locked_put_visible () =
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let win = Rma.create comm Datatype.int (Array.make 2 0) in
        if Comm.rank comm = 0 then
          Rma.with_locked win ~target:1 (fun () ->
              Rma.put win ~target:1 ~target_pos:0 [| 41; 42 |]);
        Coll.barrier comm;
        let v = Array.copy (Rma.local win) in
        Rma.free win;
        v)
  in
  Alcotest.(check (array int)) "target sees the put after unlock" [| 41; 42 |] results.(1)

let test_shared_lock_accumulate () =
  let results =
    Engine.run_values ~ranks:6 (fun comm ->
        let win = Rma.create comm Datatype.int (Array.make 1 0) in
        let r = Comm.rank comm in
        if r > 0 then
          Rma.with_locked ~exclusive:false win ~target:0 (fun () ->
              Rma.accumulate win ~target:0 ~target_pos:0 Reduce_op.int_sum [| r |]);
        Coll.barrier comm;
        let v = (Rma.local win).(0) in
        Rma.free win;
        v)
  in
  Alcotest.(check int) "all contributions accumulated" 15 results.(0)

let test_exclusive_lock_contention () =
  (* Two origins compete for the same exclusive lock; one parks until the
     other unlocks.  Both epochs must complete and both slots land. *)
  let results =
    Engine.run_values ~ranks:3 (fun comm ->
        let win = Rma.create comm Datatype.int (Array.make 3 0) in
        let r = Comm.rank comm in
        if r > 0 then
          Rma.with_locked win ~target:0 (fun () ->
              Rma.put win ~target:0 ~target_pos:r [| 100 + r |]);
        Coll.barrier comm;
        let v = Array.copy (Rma.local win) in
        Rma.free win;
        v)
  in
  Alcotest.(check (array int)) "both epochs applied" [| 0; 101; 102 |] results.(0)

let test_lock_epoch_issue_order () =
  (* Within one epoch, a get after a put observes the put (issue order). *)
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let win = Rma.create comm Datatype.int (Array.make 1 0) in
        let into = Array.make 1 (-1) in
        if Comm.rank comm = 0 then
          Rma.with_locked win ~target:1 (fun () ->
              Rma.put win ~target:1 ~target_pos:0 [| 5 |];
              Rma.get win ~target:1 ~target_pos:0 ~count:1 into ~into_pos:0);
        Coll.barrier comm;
        Rma.free win;
        into.(0))
  in
  Alcotest.(check int) "get sees same-epoch put" 5 results.(0)

let test_with_locked_exception_safe () =
  (* A raising body must still release the lock: a second exclusive
     epoch on the same target succeeds instead of deadlocking. *)
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let win = Rma.create comm Datatype.int (Array.make 1 0) in
        let raised = ref false in
        (if Comm.rank comm = 0 then
           try Rma.with_locked win ~target:1 (fun () -> failwith "boom")
           with Failure _ -> raised := true);
        if Comm.rank comm = 0 then
          Rma.with_locked win ~target:1 (fun () ->
              Rma.put win ~target:1 ~target_pos:0 [| 9 |]);
        Coll.barrier comm;
        let v = (Rma.local win).(0) in
        Rma.free win;
        (!raised, v))
  in
  Alcotest.(check (pair bool int)) "lock released on exception" (true, 0) results.(0);
  Alcotest.(check (pair bool int)) "second epoch applied" (false, 9) results.(1)

let test_lifecycle_errors () =
  let expect_usage name body =
    try
      ignore (Engine.run ~model:Net_model.zero_cost ~ranks:1 body);
      Alcotest.fail (name ^ ": expected Usage_error")
    with Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> ()
  in
  expect_usage "fence under lock" (fun comm ->
      let win = Rma.create comm Datatype.int (Array.make 1 0) in
      Rma.lock win ~target:0;
      Rma.fence win);
  expect_usage "double free" (fun comm ->
      let win = Rma.create comm Datatype.int (Array.make 1 0) in
      Rma.free win;
      Rma.free win);
  expect_usage "unlock without lock" (fun comm ->
      let win = Rma.create comm Datatype.int (Array.make 1 0) in
      Rma.unlock win);
  expect_usage "op outside the locked target" (fun comm ->
      let win = Rma.create comm Datatype.int (Array.make 1 0) in
      Rma.lock win ~target:0;
      Rma.put win ~target:0 ~target_pos:0 [| 1 |];
      (* re-lock while holding: also a usage error *)
      Rma.lock win ~target:0)

let tests =
  [
    Alcotest.test_case "put visible after fence" `Quick test_put_visible_after_fence;
    Alcotest.test_case "get after fence" `Quick test_get_after_fence;
    Alcotest.test_case "concurrent accumulate" `Quick test_accumulate_concurrent;
    Alcotest.test_case "epochs isolated" `Quick test_put_get_epochs_isolated;
    Alcotest.test_case "deterministic overlapping puts" `Quick
      test_deterministic_overlapping_puts;
    Alcotest.test_case "multiple windows" `Quick test_multiple_windows;
    Alcotest.test_case "many windows in one run" `Quick test_many_windows_one_run;
    Alcotest.test_case "get charges round trip" `Quick test_get_charges_round_trip;
    Alcotest.test_case "out-of-range put raises ERR_RMA_RANGE" `Quick test_out_of_range_put;
    Alcotest.test_case "out-of-range get/accumulate" `Quick
      test_out_of_range_get_and_accumulate;
    Alcotest.test_case "locked put visible" `Quick test_locked_put_visible;
    Alcotest.test_case "shared-lock accumulate" `Quick test_shared_lock_accumulate;
    Alcotest.test_case "exclusive lock contention" `Quick test_exclusive_lock_contention;
    Alcotest.test_case "lock epoch issue order" `Quick test_lock_epoch_issue_order;
    Alcotest.test_case "with_locked exception safety" `Quick
      test_with_locked_exception_safe;
    Alcotest.test_case "lifecycle errors" `Quick test_lifecycle_errors;
  ]

let () = Alcotest.run "rma" [ ("rma", tests) ]
