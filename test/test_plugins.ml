(* Property tests for the algorithmic building-block plugins (§V). *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

(* --- grid all-to-all delivers exactly what dense alltoallv delivers --- *)

let prop_grid_equals_dense =
  QCheck.Test.make ~name:"grid alltoallv = dense alltoallv (as multisets)" ~count:40
    QCheck.(pair (int_range 2 12) (int_bound 100000))
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let r = Comm.rank mpi in
            let send_counts = Array.init p (fun d -> (seed + r + (3 * d)) mod 3) in
            let data =
              Array.concat
                (List.init p (fun d ->
                     Array.init send_counts.(d) (fun i -> (r * 10000) + (d * 100) + i)))
            in
            let grid = Kamping_plugins.Grid_kd.create ~k:2 comm in
            let via_grid =
              Kamping_plugins.Grid_kd.alltoallv grid Datatype.int ~send_counts data
            in
            let via_dense = Kamping.Collectives.alltoallv comm Datatype.int ~send_counts data in
            let sort a =
              let c = Array.copy a in
              Array.sort compare c;
              c
            in
            sort via_grid = sort via_dense)
      in
      Array.for_all Fun.id results)

(* --- NBX delivers exactly the sent multiset --- *)

let prop_nbx_delivers_multiset =
  QCheck.Test.make ~name:"NBX delivers exactly what was sent" ~count:40
    QCheck.(pair (int_range 2 10) (int_bound 100000))
    (fun (p, seed) ->
      let plan r =
        (* rank r sends to a pseudo-random subset of ranks *)
        List.filter_map
          (fun d ->
            if d <> r && Xoshiro.hash_int ~seed ~stream:r ~counter:d ~bound:3 = 0 then
              Some (d, Array.init ((d mod 2) + 1) (fun i -> (r * 1000) + (d * 10) + i))
            else None)
          (List.init p Fun.id)
      in
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            Kamping_plugins.Sparse_alltoall.alltoallv comm Datatype.int
              (plan (Comm.rank mpi)))
      in
      (* Expected messages at rank d: every (src, block) with dest = d. *)
      Array.for_all
        (fun d ->
          let expected =
            List.concat_map
              (fun src ->
                List.filter_map
                  (fun (dest, block) -> if dest = d then Some (src, block) else None)
                  (plan src))
              (List.init p Fun.id)
            |> List.sort compare
          in
          List.sort compare results.(d) = expected)
        (Array.init p Fun.id))

(* --- sorter properties --- *)

let prop_sorter_sorted_and_permutation =
  QCheck.Test.make ~name:"sorter: sorted + permutation" ~count:40
    QCheck.(pair (int_range 1 9) (int_bound 100000))
    (fun (p, seed) ->
      let input r =
        let len = Xoshiro.hash_int ~seed ~stream:50 ~counter:r ~bound:40 in
        Array.init len (fun i -> Xoshiro.hash_int ~seed ~stream:r ~counter:i ~bound:50)
      in
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let sorted = Kamping_plugins.Sorter.sort comm Datatype.int (input (Comm.rank mpi)) in
            let ok = Kamping_plugins.Sorter.is_globally_sorted comm Datatype.int sorted in
            (sorted, ok))
      in
      let all_in =
        List.concat_map (fun r -> Array.to_list (input r)) (List.init p Fun.id)
        |> List.sort compare
      in
      let all_out =
        List.concat_map (fun (s, _) -> Array.to_list s) (Array.to_list results)
        |> List.sort compare
      in
      all_in = all_out && Array.for_all snd results)

(* --- reproducible reduce: distribution invariance with random splits --- *)

let prop_repro_reduce_split_invariant =
  QCheck.Test.make ~name:"repro reduce invariant under random distributions" ~count:20
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (p1, p2) ->
      let n = 257 in
      let global = Array.init n (fun i -> cos (float_of_int i) *. 1e7) in
      let sum_with p =
        (Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
             let comm = Kamping.Communicator.of_mpi mpi in
             let chunk = (n + p - 1) / p in
             let lo = min n (Comm.rank mpi * chunk) in
             let hi = min n (lo + chunk) in
             Kamping_plugins.Repro_reduce.sum comm (Array.sub global lo (hi - lo)))).(0)
      in
      Int64.equal (Int64.bits_of_float (sum_with p1)) (Int64.bits_of_float (sum_with p2)))

let test_repro_reduce_matches_gather_baseline () =
  (* The gather baseline sums left-to-right; repro uses a fixed tree, so
     values may differ in low bits — but both must be internally
     p-invariant, and close to each other. *)
  let n = 100 in
  let global = Array.init n (fun i -> float_of_int (i + 1)) in
  let run p =
    (Engine.run_values ~ranks:p (fun mpi ->
         let comm = Kamping.Communicator.of_mpi mpi in
         let chunk = (n + p - 1) / p in
         let lo = min n (Comm.rank mpi * chunk) in
         let hi = min n (lo + chunk) in
         Kamping_plugins.Repro_reduce.sum comm (Array.sub global lo (hi - lo)))).(0)
  in
  (* Sum of 1..100 is exactly representable: everything must equal 5050. *)
  Alcotest.(check (float 0.)) "exact" 5050. (run 1);
  Alcotest.(check (float 0.)) "exact p=7" 5050. (run 7)

(* --- ULFM plugin --- *)

let test_ulfm_detect_maps_errors () =
  match
    Kamping_plugins.Ulfm.detect (fun () ->
        raise (Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; msg = "x" }))
  with
  | _ -> Alcotest.fail "expected Failure_detected"
  | exception Kamping_plugins.Ulfm.Failure_detected _ -> ()

let test_ulfm_detect_passes_others () =
  match Kamping_plugins.Ulfm.detect (fun () -> raise Exit) with
  | _ -> Alcotest.fail "expected Exit"
  | exception Exit -> ()

let test_ulfm_run_with_recovery () =
  let results, _ =
    Engine.run_collect ~ranks:6 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        if Comm.rank mpi = 4 then Fault.die mpi
        else begin
          let v, comm' =
            Kamping_plugins.Ulfm.run_with_recovery comm (fun c ->
                Kamping.Collectives.allreduce_single c Datatype.int Reduce_op.int_sum 1)
          in
          (v, Kamping.Communicator.size comm')
        end)
  in
  Array.iteri
    (fun r res ->
      match res with
      | None -> Alcotest.(check int) "victim" 4 r
      | Some (v, size) ->
          Alcotest.(check int) "survivors participated" 5 v;
          Alcotest.(check int) "shrunk size" 5 size)
    results

let tests =
  [
    qtest prop_grid_equals_dense;
    qtest prop_nbx_delivers_multiset;
    qtest prop_sorter_sorted_and_permutation;
    qtest prop_repro_reduce_split_invariant;
    Alcotest.test_case "repro reduce exact on integers" `Quick
      test_repro_reduce_matches_gather_baseline;
    Alcotest.test_case "ulfm detect maps failures" `Quick test_ulfm_detect_maps_errors;
    Alcotest.test_case "ulfm detect passes others" `Quick test_ulfm_detect_passes_others;
    Alcotest.test_case "ulfm run_with_recovery" `Quick test_ulfm_run_with_recovery;
  ]

let () = Alcotest.run "plugins" [ ("plugins", tests) ]
