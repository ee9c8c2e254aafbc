(* Temporary smoke test; replaced by the full suites. *)
open Mpisim

let test_allgather () =
  let results =
    Engine.run_values ~ranks:5 (fun comm ->
        let r = Comm.rank comm in
        Coll.allgather comm Datatype.int [| r; r * 10 |])
  in
  Array.iter
    (fun res ->
      Alcotest.(check (array int)) "allgather result"
        [| 0; 0; 1; 10; 2; 20; 3; 30; 4; 40 |]
        res)
    results

let test_allreduce () =
  let results =
    Engine.run_values ~ranks:7 (fun comm ->
        Coll.allreduce_single comm Datatype.int Reduce_op.int_sum (Comm.rank comm))
  in
  Array.iter (fun v -> Alcotest.(check int) "sum" 21 v) results

let test_alltoallv () =
  let n = 4 in
  let results =
    Engine.run_values ~ranks:n (fun comm ->
        let r = Comm.rank comm in
        (* rank r sends (r+1) copies of (100*r + dest) to each dest *)
        let send_counts = Array.make n (r + 1) in
        let data =
          Array.concat
            (List.init n (fun dest -> Array.make (r + 1) ((100 * r) + dest)))
        in
        let recv_counts = Coll.alltoall comm Datatype.int send_counts in
        let send_displs = Coll.exclusive_prefix_sum send_counts in
        let recv_displs = Coll.exclusive_prefix_sum recv_counts in
        Coll.alltoallv comm Datatype.int ~send_counts ~send_displs ~recv_counts
          ~recv_displs data)
  in
  (* rank d receives from each src: (src+1) copies of 100*src + d *)
  Array.iteri
    (fun d res ->
      let expected =
        Array.concat (List.init n (fun src -> Array.make (src + 1) ((100 * src) + d)))
      in
      Alcotest.(check (array int)) "alltoallv" expected res)
    results

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock raises" (Failure "deadlock")
    (fun () ->
      try
        ignore
          (Engine.run ~ranks:2 (fun comm ->
               (* Both ranks receive without anyone sending. *)
               ignore (P2p.recv comm Datatype.int ~source:(1 - Comm.rank comm) ())))
      with Scheduler.Deadlock _ -> raise (Failure "deadlock"))

let base_tests =
  [
    Alcotest.test_case "allgather" `Quick test_allgather;
    Alcotest.test_case "allreduce" `Quick test_allreduce;
    Alcotest.test_case "alltoallv" `Quick test_alltoallv;
    Alcotest.test_case "deadlock" `Quick test_deadlock_detected;
  ]

(* --- extended smoke: kamping + plugins --- *)

let test_kamping_allgatherv () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let v = Array.init (r + 1) (fun i -> (r * 100) + i) in
        Kamping.Collectives.allgatherv comm Datatype.int v)
  in
  let expected =
    Array.concat (List.init 4 (fun r -> Array.init (r + 1) (fun i -> (r * 100) + i)))
  in
  Array.iter (fun res -> Alcotest.(check (array int)) "allgatherv" expected res) results

let test_sparse_nbx () =
  let results =
    Engine.run_values ~ranks:6 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let n = Comm.size mpi in
        (* each rank sends to its two neighbours *)
        let outgoing =
          [ ((r + 1) mod n, [| r |]); ((r + n - 1) mod n, [| r; r |]) ]
        in
        Kamping_plugins.Sparse_alltoall.alltoallv comm Datatype.int outgoing)
  in
  Array.iteri
    (fun r incoming ->
      let n = 6 in
      let sorted = List.sort compare incoming in
      let expected =
        List.sort compare
          [ ((r + n - 1) mod n, [| (r + n - 1) mod n |]); ((r + 1) mod n, [| (r + 1) mod n; (r + 1) mod n |]) ]
      in
      Alcotest.(check bool) "nbx" true (sorted = expected))
    results

let test_grid () =
  let n = 9 in
  let results =
    Engine.run_values ~ranks:n (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let grid = Kamping_plugins.Grid_kd.create ~k:2 comm in
        (* send (r*n + d) to each d *)
        let send_counts = Array.make n 1 in
        let data = Array.init n (fun d -> (r * n) + d) in
        let recv = Kamping_plugins.Grid_kd.alltoallv grid Datatype.int ~send_counts data in
        Array.sort compare recv;
        recv)
  in
  Array.iteri
    (fun d res ->
      let expected = Array.init n (fun src -> (src * n) + d) in
      Alcotest.(check (array int)) "grid" expected res)
    results

let test_repro_reduce_invariance () =
  let global = Array.init 1000 (fun i -> sin (float_of_int i) *. 1e6) in
  let sum_with_p p =
    let results =
      Engine.run_values ~ranks:p (fun mpi ->
          let comm = Kamping.Communicator.of_mpi mpi in
          let r = Comm.rank mpi in
          let chunk = (Array.length global + p - 1) / p in
          let lo = min (Array.length global) (r * chunk) in
          let hi = min (Array.length global) (lo + chunk) in
          Kamping_plugins.Repro_reduce.sum comm (Array.sub global lo (hi - lo)))
    in
    results.(0)
  in
  let s1 = sum_with_p 1 in
  List.iter
    (fun p ->
      let sp = sum_with_p p in
      Alcotest.(check bool)
        (Printf.sprintf "bitwise equal at p=%d" p)
        true
        (Int64.equal (Int64.bits_of_float s1) (Int64.bits_of_float sp)))
    [ 2; 3; 4; 7; 16 ]

let test_sorter () =
  let n = 8 in
  let results =
    Engine.run_values ~ranks:n (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let rng = Xoshiro.create ~seed:42 ~stream:(Comm.rank mpi) in
        let data = Array.init 500 (fun _ -> Xoshiro.next_int rng ~bound:100000) in
        let sorted = Kamping_plugins.Sorter.sort comm Datatype.int data in
        let ok = Kamping_plugins.Sorter.is_globally_sorted comm Datatype.int sorted in
        (ok, Array.length sorted))
  in
  let total = Array.fold_left (fun acc (_, len) -> acc + len) 0 results in
  Alcotest.(check int) "element count preserved" (8 * 500) total;
  Array.iter (fun (ok, _) -> Alcotest.(check bool) "globally sorted" true ok) results

let test_ulfm_recovery () =
  let results, report =
    Engine.run_collect ~ranks:5 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        if Comm.rank mpi = 2 then begin
          (* participate once, then die *)
          ignore (Kamping.Collectives.allreduce_single comm Datatype.int Reduce_op.int_sum 1);
          Fault.die mpi
        end
        else begin
          ignore (Kamping.Collectives.allreduce_single comm Datatype.int Reduce_op.int_sum 1);
          let result, comm' =
            Kamping_plugins.Ulfm.run_with_recovery comm (fun c ->
                Kamping.Collectives.allreduce_single c Datatype.int Reduce_op.int_sum 1)
          in
          (result, Kamping.Communicator.size comm')
        end)
  in
  Alcotest.(check (list int)) "killed ranks" [ 2 ] report.Engine.killed;
  Array.iteri
    (fun r res ->
      match res with
      | None -> Alcotest.(check int) "only rank 2 died" 2 r
      | Some (sum, sz) ->
          Alcotest.(check int) "survivor count" 4 sz;
          Alcotest.(check int) "sum over survivors" 4 sum)
    results

let more_tests =
  [
    Alcotest.test_case "kamping allgatherv" `Quick test_kamping_allgatherv;
    Alcotest.test_case "sparse nbx" `Quick test_sparse_nbx;
    Alcotest.test_case "grid alltoall" `Quick test_grid;
    Alcotest.test_case "repro reduce" `Quick test_repro_reduce_invariance;
    Alcotest.test_case "sorter" `Quick test_sorter;
    Alcotest.test_case "ulfm recovery" `Quick test_ulfm_recovery;
  ]

let () = Alcotest.run "smoke" [ ("mpisim", base_tests); ("kamping", more_tests) ]
