(* Tests for groups, communicator construction (dup/split/topology) and
   context isolation, plus the ULFM substrate (shrink/agree). *)

open Mpisim

let test_group_algebra () =
  let a = Group.of_ranks [| 0; 2; 4; 6 |] in
  let b = Group.of_ranks [| 4; 6; 8 |] in
  Alcotest.(check (array int)) "union" [| 0; 2; 4; 6; 8 |] (Group.union a b);
  Alcotest.(check (array int)) "intersection" [| 4; 6 |] (Group.intersection a b);
  Alcotest.(check (array int)) "difference" [| 0; 2 |] (Group.difference a b);
  Alcotest.(check (array int)) "incl" [| 2; 6 |] (Group.incl a [| 1; 3 |]);
  Alcotest.(check (array int)) "excl" [| 0; 4 |] (Group.excl a [| 1; 3 |]);
  Alcotest.(check bool) "mem" true (Group.mem a 4);
  Alcotest.(check bool) "not mem" false (Group.mem a 5);
  Alcotest.(check (option int)) "rank_of_world" (Some 2) (Group.rank_of_world a 4)

let test_group_rejects_duplicates () =
  Alcotest.check_raises "duplicate"
    (Errdefs.Usage_error "Group.of_ranks: duplicate rank 3") (fun () ->
      ignore (Group.of_ranks [| 1; 3; 3 |]))

let test_dup_isolation () =
  (* Messages sent on the duplicate must not match receives on the
     original. *)
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let dup = Comm_ops.dup comm in
        if Comm.rank comm = 0 then begin
          P2p.send dup Datatype.int ~dest:1 ~tag:3 [| 111 |];
          P2p.send comm Datatype.int ~dest:1 ~tag:3 [| 222 |];
          (0, 0)
        end
        else begin
          (* Receive on the original first: must get 222, not 111. *)
          let a, _ = P2p.recv comm Datatype.int ~source:0 () in
          let b, _ = P2p.recv dup Datatype.int ~source:0 () in
          (a.(0), b.(0))
        end)
  in
  Alcotest.(check (pair int int)) "contexts isolated" (222, 111) results.(1)

let test_split_by_parity () =
  let p = 7 in
  let results =
    Engine.run_values ~ranks:p (fun comm ->
        let r = Comm.rank comm in
        match Comm_ops.split comm ~color:(r mod 2) ~key:(-r) () with
        | None -> (-1, -1, [||])
        | Some sub ->
            (* key = -r: order reversed within each color *)
            let members = Coll.allgather sub Datatype.int [| r |] in
            (Comm.rank sub, Comm.size sub, members))
  in
  let rank0, size0, members0 = results.(0) in
  ignore rank0;
  Alcotest.(check int) "even group size" 4 size0;
  Alcotest.(check (array int)) "even members reversed" [| 6; 4; 2; 0 |] members0;
  let _, size1, members1 = results.(1) in
  Alcotest.(check int) "odd group size" 3 size1;
  Alcotest.(check (array int)) "odd members reversed" [| 5; 3; 1 |] members1

let test_split_undefined_color () =
  let results =
    Engine.run_values ~ranks:4 (fun comm ->
        let r = Comm.rank comm in
        match Comm_ops.split comm ~color:(if r = 2 then -1 else 0) () with
        | None -> -1
        | Some sub -> Comm.size sub)
  in
  Alcotest.(check (array int)) "rank 2 excluded" [| 3; 3; -1; 3 |] results

let test_create_from_group () =
  let results =
    Engine.run_values ~ranks:5 (fun comm ->
        let g = Group.of_ranks [| 1; 3; 4 |] in
        match Comm_ops.create_from_group comm g with
        | None -> (-1, -1)
        | Some sub -> (Comm.rank sub, Comm.size sub))
  in
  Alcotest.(check (array (pair int int)))
    "membership and ranks"
    [| (-1, -1); (0, 3); (-1, -1); (1, 3); (2, 3) |]
    results

let test_split_then_collective () =
  (* Collectives on sub-communicators must not interfere. *)
  let results =
    Engine.run_values ~ranks:6 (fun comm ->
        let r = Comm.rank comm in
        let sub = Option.get (Comm_ops.split comm ~color:(r / 3) ~key:r ()) in
        Coll.allreduce_single sub Datatype.int Reduce_op.int_sum r)
  in
  Alcotest.(check (array int)) "per-subcomm sums" [| 3; 3; 3; 12; 12; 12 |] results

let asymmetric_graph comm =
  let nbs = if Comm.rank comm = 0 then [| 1 |] else [||] in
  ignore (Comm_ops.dist_graph_create_adjacent comm ~sources:nbs ~destinations:nbs)

let test_topology_symmetry_check () =
  (* Asymmetric neighbor lists must be rejected by the heavy sanitizer. *)
  let caught = ref false in
  (try ignore (Engine.run ~check_level:Check.Heavy ~ranks:2 asymmetric_graph) with
  | Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> caught := true
  | Errdefs.Usage_error _ -> caught := true);
  Alcotest.(check bool) "asymmetry rejected" true !caught

let test_topology_symmetry_check_costs_nothing_below_heavy () =
  (* The symmetry alltoall is heavy-only: below it, graph creation issues
     no alltoall at all (and so cannot notice the asymmetry). *)
  List.iter
    (fun level ->
      let report = Engine.run ~check_level:level ~ranks:2 asymmetric_graph in
      let alltoalls =
        List.fold_left
          (fun acc (op, calls, _) -> if op = "alltoall" then acc + calls else acc)
          0 report.Engine.profile
      in
      Alcotest.(check int)
        (Printf.sprintf "no alltoall at %s" (Check.level_to_string level))
        0 alltoalls)
    [ Check.Off; Check.Light ]

let test_shrink_after_failure () =
  let results, report =
    Engine.run_collect ~ranks:5 (fun comm ->
        if Comm.rank comm = 1 then Fault.die comm
        else begin
          let sub = Comm_ops.shrink comm in
          (Comm.rank sub, Comm.size sub, Coll.allreduce_single sub Datatype.int Reduce_op.int_sum 1)
        end)
  in
  Alcotest.(check (list int)) "killed" [ 1 ] report.Engine.killed;
  Array.iteri
    (fun r res ->
      match res with
      | None -> Alcotest.(check int) "victim" 1 r
      | Some (_, size, participants) ->
          Alcotest.(check int) "survivor count" 4 size;
          Alcotest.(check int) "all participated" 4 participants)
    results;
  (* New ranks are ordered by old rank. *)
  (match results.(0), results.(4) with
  | Some (nr0, _, _), Some (nr4, _, _) ->
      Alcotest.(check int) "rank 0 stays 0" 0 nr0;
      Alcotest.(check int) "rank 4 becomes 3" 3 nr4
  | _ -> Alcotest.fail "missing results")

let test_agree_over_survivors () =
  let results, _ =
    Engine.run_collect ~ranks:4 (fun comm ->
        if Comm.rank comm = 3 then Fault.die comm
        else Comm_ops.agree comm (Comm.rank comm <> 1))
  in
  (* Rank 1 contributed false: AND over survivors is false. *)
  Array.iteri
    (fun r res ->
      match res with
      | None -> Alcotest.(check int) "victim" 3 r
      | Some v -> Alcotest.(check bool) "agreed AND" false v)
    results

let test_revoked_comm_rejects_ops () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            Comm.revoke comm;
            ignore (Coll.allgather comm Datatype.int [| 1 |])))
   with
  | Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_revoked; _ }; _ } ->
      caught := true);
  Alcotest.(check bool) "revoked comm raises" true !caught

let tests =
  [
    Alcotest.test_case "group algebra" `Quick test_group_algebra;
    Alcotest.test_case "group duplicate rejection" `Quick test_group_rejects_duplicates;
    Alcotest.test_case "dup isolates contexts" `Quick test_dup_isolation;
    Alcotest.test_case "split by parity with keys" `Quick test_split_by_parity;
    Alcotest.test_case "split undefined color" `Quick test_split_undefined_color;
    Alcotest.test_case "create from group" `Quick test_create_from_group;
    Alcotest.test_case "collectives on subcomms" `Quick test_split_then_collective;
    Alcotest.test_case "topology symmetry check" `Quick test_topology_symmetry_check;
    Alcotest.test_case "no symmetry alltoall below heavy" `Quick
      test_topology_symmetry_check_costs_nothing_below_heavy;
    Alcotest.test_case "shrink after failure" `Quick test_shrink_after_failure;
    Alcotest.test_case "agree over survivors" `Quick test_agree_over_survivors;
    Alcotest.test_case "revoked comm rejects ops" `Quick test_revoked_comm_rejects_ops;
  ]

let () = Alcotest.run "comm_ops" [ ("comm_ops", tests) ]
