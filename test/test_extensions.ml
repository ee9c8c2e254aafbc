(* Tests for the §VI extension features: layouts, k-dimensional grid
   all-to-all, message aggregation, and distributed containers. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

(* --- layouts --- *)

let test_layout_counts_and_extent () =
  let l = Layout.vector ~count:3 ~blocklen:2 ~stride:5 in
  Alcotest.(check int) "count" 6 (Layout.element_count l);
  Alcotest.(check int) "extent" 12 (Layout.extent l);
  Alcotest.(check (list int)) "positions" [ 0; 1; 5; 6; 10; 11 ] (Layout.positions l)

let test_layout_extract_scatter () =
  let l = Layout.indexed [ (1, 2); (5, 1) ] in
  let src = [| 10; 11; 12; 13; 14; 15; 16 |] in
  let packed = Layout.extract l src in
  Alcotest.(check (array int)) "extract" [| 11; 12; 15 |] packed;
  let dst = Array.make 7 0 in
  Layout.scatter_into l ~packed dst;
  Alcotest.(check (array int)) "scatter" [| 0; 11; 12; 0; 0; 15; 0 |] dst

let test_layout_concat_offset () =
  let l = Layout.concat [ Layout.contiguous 2; Layout.offset 4 (Layout.contiguous 2) ] in
  Alcotest.(check (list int)) "positions" [ 0; 1; 4; 5 ] (Layout.positions l)

let prop_layout_extract_scatter_inverse =
  QCheck.Test.make ~name:"scatter_into . extract = restriction" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (count, blocklen) ->
      let stride = blocklen + 2 in
      let l = Layout.vector ~count ~blocklen ~stride in
      let n = Layout.extent l + 3 in
      let src = Array.init n (fun i -> i * 7) in
      let packed = Layout.extract l src in
      let dst = Array.make n (-1) in
      Layout.scatter_into l ~packed dst;
      (* Every selected position carries src's value; others are -1. *)
      let sel = Layout.positions l in
      Array.for_all Fun.id
        (Array.init n (fun i ->
             if List.mem i sel then dst.(i) = src.(i) else dst.(i) = -1)))

(* --- k-dimensional grid --- *)

let prop_grid_kd_equals_dense =
  QCheck.Test.make ~name:"k-d grid alltoallv = dense (multisets)" ~count:30
    QCheck.(triple (Arb.ranks 2 16) (int_range 1 4) (int_bound 100000))
    (fun (p, k, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let r = Comm.rank mpi in
            let send_counts = Array.init p (fun d -> (seed + r + d) mod 3) in
            let data =
              Array.concat
                (List.init p (fun d ->
                     Array.init send_counts.(d) (fun i -> (r * 10000) + (d * 100) + i)))
            in
            let grid = Kamping_plugins.Grid_kd.create ~k comm in
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

(* k = 2 is the paper's 2-D grid: rows x cols, listed slowest to fastest,
   with cols the largest divisor of p not above ceil(sqrt p) on the fast
   dimension.  p = 8 and 12 pin the orientation: their grids are not
   square, so a transposed layout fails. *)
let test_grid_kd_factorization () =
  let dims = Kamping_plugins.Grid_kd.factorize ~k:3 64 in
  Alcotest.(check int) "product" 64 (Array.fold_left ( * ) 1 dims);
  let dims2 = Kamping_plugins.Grid_kd.factorize ~k:2 30 in
  Alcotest.(check int) "product 30" 30 (Array.fold_left ( * ) 1 dims2);
  let cols p =
    let rec search c = if p mod c = 0 then c else search (c - 1) in
    search (int_of_float (ceil (sqrt (float_of_int p))))
  in
  let grid_dims p =
    let grid = ref [||] in
    ignore
      (Engine.run_values ~ranks:p (fun mpi ->
           let g = Kamping_plugins.Grid_kd.create ~k:2 (Kamping.Communicator.of_mpi mpi) in
           if Comm.rank mpi = 0 then grid := Kamping_plugins.Grid_kd.dims g));
    !grid
  in
  Alcotest.(check (array int)) "p = 8: 4 rows x 2 cols" [| 4; 2 |] (grid_dims 8);
  Alcotest.(check (array int)) "p = 12: 3 rows x 4 cols" [| 3; 4 |] (grid_dims 12);
  for p = 1 to 200 do
    Alcotest.(check (array int))
      (Printf.sprintf "factorize ~k:2 %d" p)
      [| p / cols p; cols p |]
      (Kamping_plugins.Grid_kd.factorize ~k:2 p)
  done

(* --- aggregator --- *)

let test_aggregator_batches () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let agg = Kamping_plugins.Aggregator.create comm Datatype.int in
        let r = Comm.rank mpi in
        (* Push 10 fine-grained messages to each other rank, one flush. *)
        for round = 0 to 9 do
          Kamping.Communicator.iter_other_ranks comm (fun dest ->
              Kamping_plugins.Aggregator.push_local agg ~dest ((r * 100) + round))
        done;
        Kamping_plugins.Aggregator.flush agg;
        let received = Kamping_plugins.Aggregator.drain_elements agg in
        ( Array.length received,
          Kamping_plugins.Aggregator.flush_count agg,
          Array.to_list received |> List.sort_uniq compare |> List.length ))
  in
  Array.iter
    (fun (n, flushes, distinct) ->
      Alcotest.(check int) "30 elements from 3 peers" 30 n;
      Alcotest.(check int) "single flush" 1 flushes;
      Alcotest.(check int) "all distinct" 30 distinct)
    results

let test_aggregator_auto_flush_threshold () =
  let results =
    Engine.run_values ~ranks:2 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let agg = Kamping_plugins.Aggregator.create ~flush_threshold:5 comm Datatype.int in
        let other = 1 - Comm.rank mpi in
        (* Lockstep pushes: the 5th triggers the collective auto-flush on
           both ranks simultaneously. *)
        for i = 1 to 5 do
          Kamping_plugins.Aggregator.push agg ~dest:other i
        done;
        ( Kamping_plugins.Aggregator.flush_count agg,
          Kamping_plugins.Aggregator.buffered_count agg ))
  in
  Array.iter
    (fun (flushes, buffered) ->
      Alcotest.(check int) "auto-flushed once" 1 flushes;
      Alcotest.(check int) "buffer empty" 0 buffered)
    results

(* --- distributed containers --- *)

let test_dist_array_map_reduce () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let a = Kamping_plugins.Dist_array.init comm Datatype.int ~n:100 Fun.id in
        let squares = Kamping_plugins.Dist_array.map (fun x -> x * x) Datatype.int a in
        Kamping_plugins.Dist_array.reduce Reduce_op.int_sum ~init:0 squares)
  in
  let expected = List.fold_left (fun acc i -> acc + (i * i)) 0 (List.init 100 Fun.id) in
  Array.iter (fun v -> Alcotest.(check int) "sum of squares" expected v) results

let test_dist_array_filter_balance () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let a = Kamping_plugins.Dist_array.init comm Datatype.int ~n:40 Fun.id in
        let evens = Kamping_plugins.Dist_array.filter (fun x -> x mod 2 = 0) a in
        ( Kamping_plugins.Dist_array.global_length evens,
          Kamping_plugins.Dist_array.local_length evens,
          Kamping_plugins.Dist_array.to_global evens ))
  in
  Array.iter
    (fun (n, local, all) ->
      Alcotest.(check int) "20 evens" 20 n;
      Alcotest.(check int) "balanced" 5 local;
      Alcotest.(check (array int)) "global order kept" (Array.init 20 (fun i -> 2 * i)) all)
    results

let test_dist_array_sort () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let a =
          Kamping_plugins.Dist_array.init comm Datatype.int ~n:64 (fun i -> (i * 37) mod 64)
        in
        Kamping_plugins.Dist_array.to_global (Kamping_plugins.Dist_array.sort a))
  in
  Alcotest.(check (array int)) "sorted permutation" (Array.init 64 Fun.id) results.(0)

let test_dist_array_reduce_by_key () =
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let a = Kamping_plugins.Dist_array.init comm Datatype.int ~n:30 Fun.id in
        let pairs =
          Kamping_plugins.Dist_array.reduce_by_key a ~key_dt:Datatype.int
            ~value_dt:Datatype.int ~key_of:(fun x -> x mod 3)
            ~value_of:(fun _ -> 1)
            ~combine:( + )
        in
        Array.to_list pairs)
  in
  (* Each key 0,1,2 appears 10 times; keys are hash-partitioned, so
     concatenate over ranks and check totals. *)
  let all = List.concat (Array.to_list results) in
  List.iter
    (fun k ->
      let total = List.fold_left (fun acc (k', v) -> if k' = k then acc + v else acc) 0 all in
      Alcotest.(check int) (Printf.sprintf "count of key %d" k) 10 total)
    [ 0; 1; 2 ]

let prop_dist_array_balance_preserves_order =
  QCheck.Test.make ~name:"balance preserves global order" ~count:40
    QCheck.(pair (Arb.ranks 1 6) (int_bound 10000))
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            (* Deliberately uneven local slices. *)
            let r = Comm.rank mpi in
            let len = Xoshiro.hash_int ~seed ~stream:9 ~counter:r ~bound:7 in
            let base = 1000 * r in
            let a =
              Kamping_plugins.Dist_array.of_local comm Datatype.int
                (Array.init len (fun i -> base + i))
            in
            let b = Kamping_plugins.Dist_array.balance a in
            ( Kamping_plugins.Dist_array.to_global a,
              Kamping_plugins.Dist_array.to_global b ))
      in
      Array.for_all (fun (before, after) -> before = after) results)

(* --- ring vs Bruck allgather agree --- *)

let prop_allgather_ring_equals_bruck =
  QCheck.Test.make ~name:"ring allgather = Bruck allgather" ~count:40
    QCheck.(pair (Arb.ranks 1 9) (int_range 1 5))
    (fun (p, count) ->
      let run algo =
        let pins = [ (Coll_algo.Allgather, Some algo) ] in
        let model = Coll_algo.pin pins Net_model.zero_cost in
        Engine.run_values ~model ~ranks:p (fun comm ->
            Coll.allgather comm Datatype.int
              (Array.init count (fun i -> (Comm.rank comm * 10) + i)))
      in
      run Coll_algo.Ring = run Coll_algo.Bruck)

let tests =
  [
    Alcotest.test_case "layout counts/extent" `Quick test_layout_counts_and_extent;
    Alcotest.test_case "layout extract/scatter" `Quick test_layout_extract_scatter;
    Alcotest.test_case "layout concat/offset" `Quick test_layout_concat_offset;
    qtest prop_layout_extract_scatter_inverse;
    qtest prop_grid_kd_equals_dense;
    Alcotest.test_case "grid kd factorization" `Quick test_grid_kd_factorization;
    Alcotest.test_case "aggregator batches" `Quick test_aggregator_batches;
    Alcotest.test_case "aggregator auto-flush" `Quick test_aggregator_auto_flush_threshold;
    Alcotest.test_case "dist_array map/reduce" `Quick test_dist_array_map_reduce;
    Alcotest.test_case "dist_array filter/balance" `Quick test_dist_array_filter_balance;
    Alcotest.test_case "dist_array sort" `Quick test_dist_array_sort;
    Alcotest.test_case "dist_array reduce_by_key" `Quick test_dist_array_reduce_by_key;
    qtest prop_dist_array_balance_preserves_order;
    qtest prop_allgather_ring_equals_bruck;
  ]

let () = Alcotest.run "extensions" [ ("extensions", tests) ]
