(* Property tests for every collective: outputs must equal a sequential
   reference computed from all ranks' inputs, for random rank counts,
   element counts and values. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

(* Generator scaffolding: a rank count in 1..9 and per-rank integer data of
   varying lengths, derived deterministically from a qcheck seed. *)
let gen_p_and_seed = QCheck.(pair (int_range 1 9) (int_bound 1_000_000))

let data_for ~seed ~rank ~len =
  Array.init len (fun i -> Xoshiro.hash_int ~seed ~stream:rank ~counter:i ~bound:1000 - 500)

let len_for ~seed ~rank = Xoshiro.hash_int ~seed ~stream:77 ~counter:rank ~bound:6

(* --- allgatherv --- *)

let prop_allgatherv =
  QCheck.Test.make ~name:"allgatherv = concatenation" ~count:60 gen_p_and_seed
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let data = data_for ~seed ~rank:r ~len:(len_for ~seed ~rank:r) in
            let counts = Coll.allgather comm Datatype.int [| Array.length data |] in
            Coll.allgatherv comm Datatype.int ~recv_counts:counts data)
      in
      let expected =
        Array.concat
          (List.init p (fun r -> data_for ~seed ~rank:r ~len:(len_for ~seed ~rank:r)))
      in
      Array.for_all (fun res -> res = expected) results)

(* --- gatherv / scatterv --- *)

let prop_gatherv =
  QCheck.Test.make ~name:"gatherv = concatenation at root" ~count:60 gen_p_and_seed
    (fun (p, seed) ->
      let root = seed mod p in
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let data = data_for ~seed ~rank:r ~len:(len_for ~seed ~rank:r) in
            let counts = Coll.gather comm Datatype.int ~root [| Array.length data |] in
            if r = root then Coll.gatherv comm Datatype.int ~root ~recv_counts:counts data
            else Coll.gatherv comm Datatype.int ~root data)
      in
      let expected =
        Array.concat
          (List.init p (fun r -> data_for ~seed ~rank:r ~len:(len_for ~seed ~rank:r)))
      in
      results.(root) = expected
      && Array.for_all (fun res -> res = expected || res = [||]) results)

let prop_scatterv_inverts_gatherv =
  QCheck.Test.make ~name:"scatterv splits what gatherv joins" ~count:60 gen_p_and_seed
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let counts = Array.init p (fun i -> len_for ~seed ~rank:i) in
            let total = Array.fold_left ( + ) 0 counts in
            let all = Array.init total (fun i -> i * 3) in
            let mine =
              if r = 0 then
                Coll.scatterv comm Datatype.int ~root:0 ~send_counts:counts (Some all)
              else Coll.scatterv comm Datatype.int ~root:0 None
            in
            mine)
      in
      let counts = Array.init p (fun i -> len_for ~seed ~rank:i) in
      let displs = Coll.exclusive_prefix_sum counts in
      Array.for_all
        (fun r ->
          results.(r) = Array.init counts.(r) (fun i -> (displs.(r) + i) * 3))
        (Array.init p Fun.id))

(* --- bcast --- *)

let prop_bcast =
  QCheck.Test.make ~name:"bcast reaches everyone" ~count:60 gen_p_and_seed
    (fun (p, seed) ->
      let root = seed mod p in
      let payload = data_for ~seed ~rank:42 ~len:(1 + (seed mod 7)) in
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            Coll.bcast comm Datatype.int ~root
              (if Comm.rank comm = root then Some payload else None))
      in
      Array.for_all (fun res -> res = payload) results)

(* --- reduce / allreduce --- *)

let prop_reduce_sum =
  QCheck.Test.make ~name:"reduce(sum) = elementwise total" ~count:60 gen_p_and_seed
    (fun (p, seed) ->
      let len = 4 in
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            Coll.reduce comm Datatype.int Reduce_op.int_sum ~root:0
              (data_for ~seed ~rank:(Comm.rank comm) ~len))
      in
      let expected =
        Array.init len (fun i ->
            List.fold_left ( + ) 0
              (List.init p (fun r -> (data_for ~seed ~rank:r ~len).(i))))
      in
      results.(0) = expected)

let prop_allreduce_min_max =
  QCheck.Test.make ~name:"allreduce min/max" ~count:60 gen_p_and_seed (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let x = Xoshiro.hash_int ~seed ~stream:5 ~counter:(Comm.rank comm) ~bound:1000 in
            ( Coll.allreduce_single comm Datatype.int Reduce_op.int_min x,
              Coll.allreduce_single comm Datatype.int Reduce_op.int_max x ))
      in
      let values =
        List.init p (fun r -> Xoshiro.hash_int ~seed ~stream:5 ~counter:r ~bound:1000)
      in
      let mn = List.fold_left min max_int values and mx = List.fold_left max min_int values in
      Array.for_all (fun (a, b) -> a = mn && b = mx) results)

(* Non-commutative reduction: string-like concatenation encoded as an int
   fold whose result depends on order. *)
let prop_reduce_noncommutative_order =
  QCheck.Test.make ~name:"non-commutative reduce preserves rank order" ~count:40
    gen_p_and_seed (fun (p, seed) ->
      ignore seed;
      let op = Reduce_op.custom ~commutative:false ~name:"append" (fun a b -> (a * 10) + b) in
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            Coll.reduce comm Datatype.int op ~root:0 [| Comm.rank comm + 1 |])
      in
      let expected = List.fold_left (fun acc r -> (acc * 10) + (r + 1)) 1 (List.init (p - 1) (fun i -> i + 1)) in
      results.(0) = [| expected |])

(* --- scan / exscan --- *)

let prop_scan =
  QCheck.Test.make ~name:"scan = inclusive prefix" ~count:60 gen_p_and_seed
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let x = Xoshiro.hash_int ~seed ~stream:6 ~counter:(Comm.rank comm) ~bound:100 in
            Coll.scan_single comm Datatype.int Reduce_op.int_sum x)
      in
      let values = List.init p (fun r -> Xoshiro.hash_int ~seed ~stream:6 ~counter:r ~bound:100) in
      let rec prefixes acc = function
        | [] -> []
        | x :: rest -> (acc + x) :: prefixes (acc + x) rest
      in
      Array.to_list results = prefixes 0 values)

let prop_exscan =
  QCheck.Test.make ~name:"exscan = exclusive prefix" ~count:60 gen_p_and_seed
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let x = Xoshiro.hash_int ~seed ~stream:6 ~counter:(Comm.rank comm) ~bound:100 in
            Coll.exscan_single comm Datatype.int Reduce_op.int_sum x)
      in
      let values = List.init p (fun r -> Xoshiro.hash_int ~seed ~stream:6 ~counter:r ~bound:100) in
      let expected =
        List.mapi
          (fun r _ ->
            if r = 0 then None
            else Some (List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < r) values)))
          values
      in
      Array.to_list results = expected)

(* --- alltoall / alltoallv / alltoallw --- *)

let prop_alltoall =
  QCheck.Test.make ~name:"alltoall = transpose" ~count:60 gen_p_and_seed (fun (p, seed) ->
      ignore seed;
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            Coll.alltoall comm Datatype.int (Array.init p (fun d -> (r * 100) + d)))
      in
      Array.for_all
        (fun d -> results.(d) = Array.init p (fun src -> (src * 100) + d))
        (Array.init p Fun.id))

let alltoall_reference ~p ~seed =
  (* what rank d receives: for each src, src's block for d *)
  Array.init p (fun d ->
      Array.concat
        (List.init p (fun src ->
             let len = (seed + src + d) mod 4 in
             Array.init len (fun i -> (src * 10000) + (d * 100) + i))))

let prop_alltoallv =
  QCheck.Test.make ~name:"alltoallv = irregular transpose" ~count:60 gen_p_and_seed
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let send_counts = Array.init p (fun d -> (seed + r + d) mod 4) in
            let data =
              Array.concat
                (List.init p (fun d ->
                     Array.init send_counts.(d) (fun i -> (r * 10000) + (d * 100) + i)))
            in
            let recv_counts = Coll.alltoall comm Datatype.int send_counts in
            let send_displs = Coll.exclusive_prefix_sum send_counts in
            let recv_displs = Coll.exclusive_prefix_sum recv_counts in
            Coll.alltoallv comm Datatype.int ~send_counts ~send_displs ~recv_counts
              ~recv_displs data)
      in
      let expected = alltoall_reference ~p ~seed in
      Array.for_all (fun d -> results.(d) = expected.(d)) (Array.init p Fun.id))

let prop_alltoallw_matches_alltoallv =
  QCheck.Test.make ~name:"alltoallw result = alltoallv result" ~count:40 gen_p_and_seed
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let send_counts = Array.init p (fun d -> (seed + r + d) mod 4) in
            let data =
              Array.concat
                (List.init p (fun d ->
                     Array.init send_counts.(d) (fun i -> (r * 10000) + (d * 100) + i)))
            in
            let recv_counts = Coll.alltoall comm Datatype.int send_counts in
            Coll.alltoallw comm Datatype.int ~send_counts ~recv_counts data)
      in
      let expected = alltoall_reference ~p ~seed in
      Array.for_all (fun d -> results.(d) = expected.(d)) (Array.init p Fun.id))

(* --- barrier: clock synchronization --- *)

let test_barrier_synchronizes () =
  let times =
    Engine.run_values ~clock_mode:Runtime.Virtual_only ~ranks:4 (fun comm ->
        let rt = Comm.runtime comm in
        (* Rank 2 is 1 second behind everyone else. *)
        if Comm.rank comm = 2 then Runtime.charge_compute rt 2 1.0;
        Coll.barrier comm;
        Runtime.clock rt (Comm.world_rank comm))
  in
  Array.iter
    (fun t -> Alcotest.(check bool) "after the slowest rank" true (t >= 1.0))
    times

(* --- neighbor collectives --- *)

let test_neighbor_alltoallv_ring () =
  let p = 6 in
  let results =
    Engine.run_values ~ranks:p (fun comm ->
        let r = Comm.rank comm in
        let nbs = [| (r + p - 1) mod p; (r + 1) mod p |] in
        let topo = Comm_ops.dist_graph_create_adjacent comm ~sources:nbs ~destinations:nbs in
        let data = [| (r * 10) + 1; (r * 10) + 1; (r * 10) + 2 |] in
        (* 2 elements to the left neighbor, 1 to the right *)
        Coll.neighbor_alltoallv topo Datatype.int ~send_counts:[| 2; 1 |]
          ~recv_counts:[| 1; 2 |] data)
  in
  Array.iteri
    (fun r res ->
      (* from left neighbor: its 1-element right block; from right: its
         2-element left block *)
      let left = (r + p - 1) mod p and right = (r + 1) mod p in
      Alcotest.(check (array int))
        (Printf.sprintf "rank %d" r)
        [| (left * 10) + 2; (right * 10) + 1; (right * 10) + 1 |]
        res)
    results

let test_neighbor_requires_topology () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            ignore (Coll.neighbor_allgather comm Datatype.int [| 1 |])))
   with Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> caught := true);
  Alcotest.(check bool) "usage error without topology" true !caught

(* Regression: an empty contribution in one gatherv must not leave a stale
   message that corrupts the next gatherv on the same (source, tag). *)
let test_gatherv_empty_then_nonempty () =
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let r = Comm.rank comm in
        let data1 = if r = 1 then [||] else [| 10 |] in
        let counts1 = if r = 0 then Some [| 1; 0 |] else None in
        let g1 = Coll.gatherv comm Datatype.int ~root:0 ?recv_counts:counts1 data1 in
        let data2 = if r = 1 then [| 21; 22 |] else [| 20 |] in
        let counts2 = if r = 0 then Some [| 1; 2 |] else None in
        let g2 = Coll.gatherv comm Datatype.int ~root:0 ?recv_counts:counts2 data2 in
        (g1, g2))
  in
  let g1, g2 = results.(0) in
  Alcotest.(check (array int)) "first gather" [| 10 |] g1;
  Alcotest.(check (array int)) "second gather" [| 20; 21; 22 |] g2

(* Exact wire volume of the allgatherv ring: every block travels p-1 hops,
   so total send (= recv) bytes are (p-1) x the gathered size.  Pooled
   buffers and slice hand-off must change ownership, never volume. *)
let test_allgatherv_byte_volume () =
  let p = 4 and elems = 8 in
  let report =
    Engine.run ~model:Net_model.zero_cost ~ranks:p (fun comm ->
        let r = Comm.rank comm in
        let data = Array.init elems (fun i -> (r * 100) + i) in
        ignore (Coll.allgatherv comm Datatype.int ~recv_counts:(Array.make p elems) data))
  in
  let bytes_of op =
    match List.find_opt (fun (o, _, _) -> o = op) report.Engine.profile with
    | Some (_, _, b) -> b
    | None -> 0
  in
  let total = p * elems * Datatype.elem_size Datatype.int in
  Alcotest.(check int) "ring sends (p-1) x total" ((p - 1) * total) (bytes_of "send");
  Alcotest.(check int) "recv volume mirrors send" ((p - 1) * total) (bytes_of "recv");
  Alcotest.(check int) "per-rank contribution recorded" total (bytes_of "allgatherv")

(* --- Algorithm-selection engine (ISSUE 5) --- *)

(* Pin algorithms for the duration of [f], then restore whatever the
   environment configures, so property iterations cannot leak into each
   other or into unrelated tests. *)
let with_overrides spec f =
  Coll_algo.set_overrides spec;
  Fun.protect ~finally:Coll_algo.refresh_from_env f

(* Heavy-sanitizer run that requires every rank to survive. *)
let run_checked ~ranks body =
  let results, _ =
    Engine.run_collect ~model:Net_model.zero_cost ~check_level:Check.Heavy ~ranks body
  in
  Array.map
    (function Some v -> v | None -> Alcotest.fail "rank died in algorithm property")
    results

(* A non-commutative fold: the result encodes the order of operands, so
   any algorithm that reassociates across ranks would change it.  The
   engine must keep non-commutative operators on the order-safe reference
   path regardless of overrides. *)
let nc_op () = Reduce_op.custom ~commutative:false ~name:"chain" (fun a b -> (a * 31) + b)

let nc_len = 3

let nc_data ~rank = Array.init nc_len (fun i -> rank + i + 1)

let nc_expected p =
  Array.init nc_len (fun i ->
      List.fold_left
        (fun acc r -> (acc * 31) + (nc_data ~rank:r).(i))
        (nc_data ~rank:0).(i)
        (List.init (p - 1) (fun r -> r + 1)))

(* Every allreduce algorithm must be element-identical to the sequential
   reference, for power-of-two and ragged communicator sizes and lengths
   including 0 — and a non-commutative operator in the same run must stay
   exact even while the commutative-only algorithm is pinned. *)
let prop_allreduce_algorithms =
  QCheck.Test.make ~name:"allreduce algorithms agree with reference" ~count:30
    gen_p_and_seed (fun (p, seed) ->
      let len = Xoshiro.hash_int ~seed ~stream:91 ~counter:0 ~bound:70 in
      let expected =
        Array.init len (fun i ->
            List.fold_left ( + ) 0
              (List.init p (fun r -> (data_for ~seed ~rank:r ~len).(i))))
      in
      let nc_exp = nc_expected p in
      List.for_all
        (fun algo ->
          let results =
            with_overrides
              [ (Coll_algo.Allreduce, Some algo) ]
              (fun () ->
                run_checked ~ranks:p (fun comm ->
                    let r = Comm.rank comm in
                    let sum =
                      Coll.allreduce comm Datatype.int Reduce_op.int_sum
                        (data_for ~seed ~rank:r ~len)
                    in
                    let chained = Coll.allreduce comm Datatype.int (nc_op ()) (nc_data ~rank:r) in
                    (sum, chained)))
          in
          Array.for_all (fun (sum, chained) -> sum = expected && chained = nc_exp) results)
        [ Coll_algo.Reduce_bcast; Coll_algo.Recursive_doubling; Coll_algo.Rabenseifner ])

let prop_allgather_algorithms =
  QCheck.Test.make ~name:"allgather algorithms agree with reference" ~count:30
    gen_p_and_seed (fun (p, seed) ->
      let len = Xoshiro.hash_int ~seed ~stream:92 ~counter:0 ~bound:9 in
      let expected =
        Array.concat (List.init p (fun r -> data_for ~seed ~rank:r ~len))
      in
      List.for_all
        (fun algo ->
          let results =
            with_overrides
              [ (Coll_algo.Allgather, Some algo) ]
              (fun () ->
                run_checked ~ranks:p (fun comm ->
                    Coll.allgather comm Datatype.int
                      (data_for ~seed ~rank:(Comm.rank comm) ~len)))
          in
          Array.for_all (fun res -> res = expected) results)
        [ Coll_algo.Bruck; Coll_algo.Ring ])

let prop_bcast_algorithms =
  QCheck.Test.make ~name:"bcast algorithms agree with reference" ~count:30 gen_p_and_seed
    (fun (p, seed) ->
      let root = seed mod p in
      let len = Xoshiro.hash_int ~seed ~stream:93 ~counter:0 ~bound:70 in
      let expected = data_for ~seed ~rank:root ~len in
      List.for_all
        (fun algo ->
          let results =
            with_overrides
              [ (Coll_algo.Bcast, Some algo) ]
              (fun () ->
                run_checked ~ranks:p (fun comm ->
                    Coll.bcast comm Datatype.int ~root
                      (if Comm.rank comm = root then Some expected else None)))
          in
          Array.for_all (fun res -> res = expected) results)
        [ Coll_algo.Binomial; Coll_algo.Scatter_allgather ])

let prop_reduce_scatter_algorithms =
  QCheck.Test.make ~name:"reduce_scatter algorithms agree with reference" ~count:30
    gen_p_and_seed (fun (p, seed) ->
      (* A ragged split, with empty blocks when the length is short. *)
      let recv_counts =
        Array.init p (fun r -> Xoshiro.hash_int ~seed ~stream:94 ~counter:r ~bound:5)
      in
      let total = Array.fold_left ( + ) 0 recv_counts in
      let displs =
        let d = Array.make p 0 in
        for r = 1 to p - 1 do
          d.(r) <- d.(r - 1) + recv_counts.(r - 1)
        done;
        d
      in
      let reduced =
        Array.init total (fun i ->
            List.fold_left ( + ) 0
              (List.init p (fun r -> (data_for ~seed ~rank:r ~len:total).(i))))
      in
      let nc_exp = nc_expected p in
      List.for_all
        (fun algo ->
          let results =
            with_overrides
              [ (Coll_algo.Reduce_scatter, Some algo) ]
              (fun () ->
                run_checked ~ranks:p (fun comm ->
                    let r = Comm.rank comm in
                    let mine =
                      Coll.reduce_scatter comm Datatype.int Reduce_op.int_sum ~recv_counts
                        (data_for ~seed ~rank:r ~len:total)
                    in
                    (* Non-commutative operator stays order-exact under any
                       override (uniform blocks so every rank gets one). *)
                    let nc =
                      if p <= nc_len then
                        Coll.reduce_scatter comm Datatype.int (nc_op ())
                          ~recv_counts:(Array.make p 1)
                          (Array.sub (nc_data ~rank:r) 0 p)
                      else [||]
                    in
                    (mine, nc)))
          in
          Array.for_all
            (fun r ->
              let mine, nc = results.(r) in
              mine = Array.sub reduced displs.(r) recv_counts.(r)
              && (p > nc_len || nc = [| nc_exp.(r) |]))
            (Array.init p Fun.id))
        [ Coll_algo.Reduce_scatterv; Coll_algo.Pairwise ])

(* MPISIM_COLL_ALGO forces the named algorithms even where the automatic
   choice would differ (tiny messages would pick recursive doubling and
   Bruck), and the choice is observable in the stats counters. *)
let test_env_override () =
  Unix.putenv "MPISIM_COLL_ALGO" "allreduce=rabenseifner,allgather=ring";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MPISIM_COLL_ALGO" "";
      Coll_algo.refresh_from_env ())
    (fun () ->
      Coll_algo.refresh_from_env ();
      let _, report =
        Engine.run_collect ~model:Net_model.omnipath ~ranks:4 (fun comm ->
            ignore
              (Coll.allreduce comm Datatype.int Reduce_op.int_sum (Array.init 8 Fun.id));
            ignore (Coll.allgather comm Datatype.int [| Comm.rank comm |]))
      in
      let count name = Stats.count (Stats.counter report.Engine.stats name) in
      Alcotest.(check int) "rabenseifner forced on all ranks" 4
        (count "coll.algo.allreduce.rabenseifner");
      Alcotest.(check int) "auto choice bypassed" 0
        (count "coll.algo.allreduce.recursive_doubling");
      Alcotest.(check int) "ring forced on all ranks" 4 (count "coll.algo.allgather.ring");
      Alcotest.(check int) "bruck bypassed" 0 (count "coll.algo.allgather.bruck"))

(* The selected algorithm is visible both as a counter and as a trace
   span nested inside the collective's span. *)
let test_algo_observability () =
  let _, report =
    Engine.run_collect ~model:Net_model.omnipath ~trace_capacity:Trace.default_capacity
      ~ranks:4 (fun comm ->
        ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum (Array.init 16 Fun.id)))
  in
  Alcotest.(check int) "counter counts one call per rank" 4
    (Stats.count
       (Stats.counter report.Engine.stats "coll.algo.allreduce.recursive_doubling"));
  let span_seen = ref false in
  Trace.iter_events report.Engine.trace 0 (fun e ->
      if e.Trace.cat = "coll" && e.Trace.name = "allreduce.recursive_doubling" then
        span_seen := true);
  Alcotest.(check bool) "trace span carries algorithm name" true !span_seen

let tests =
  [
    qtest prop_allgatherv;
    qtest prop_gatherv;
    qtest prop_scatterv_inverts_gatherv;
    qtest prop_bcast;
    qtest prop_reduce_sum;
    qtest prop_allreduce_min_max;
    qtest prop_reduce_noncommutative_order;
    qtest prop_scan;
    qtest prop_exscan;
    qtest prop_alltoall;
    qtest prop_alltoallv;
    qtest prop_alltoallw_matches_alltoallv;
    Alcotest.test_case "barrier synchronizes clocks" `Quick test_barrier_synchronizes;
    Alcotest.test_case "neighbor alltoallv on ring" `Quick test_neighbor_alltoallv_ring;
    Alcotest.test_case "neighbor requires topology" `Quick test_neighbor_requires_topology;
    Alcotest.test_case "gatherv empty-then-nonempty" `Quick
      test_gatherv_empty_then_nonempty;
    Alcotest.test_case "allgatherv byte volume" `Quick test_allgatherv_byte_volume;
    qtest prop_allreduce_algorithms;
    qtest prop_allgather_algorithms;
    qtest prop_bcast_algorithms;
    qtest prop_reduce_scatter_algorithms;
    Alcotest.test_case "MPISIM_COLL_ALGO overrides selection" `Quick test_env_override;
    Alcotest.test_case "algorithm choice is observable" `Quick test_algo_observability;
  ]

let () = Alcotest.run "coll" [ ("coll", tests) ]
