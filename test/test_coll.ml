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

(* --- One schedule, three drivers --- *)

(* Blocking calls, persistent requests (one started per cycle) and
   nonblocking calls waited at once run the same schedule, so for every
   pinned algorithm, rank count and length (0 included) they must give
   identical results; under [Virtual_only] the blocking and the
   immediately-waited runs must also give an identical makespan. *)

type driver = Blocking | Persistent | Nonblocking

let cycles = 3

(* Fresh inputs each cycle, so a persistent request must re-read them. *)
let cycle_data ~seed ~rank ~cycle ~len = data_for ~seed:(seed + cycle) ~rank ~len

let wait_result (req, cell) =
  ignore (Request.wait req);
  Option.get !cell

(* Run [cycles] cycles of one collective under [drv]: [blocking] and
   [nonblocking] are the ad-hoc calls for cycle c; [init] builds the
   persistent request, returning a per-cycle input refresh and the
   result read-out. *)
let run_driver ~p drv ~blocking ~nonblocking ~init =
  let results, report =
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
      ~check_level:Check.Heavy ~ranks:p (fun comm ->
        match drv with
        | Blocking -> Array.concat (List.init cycles (blocking comm))
        | Nonblocking ->
            Array.concat (List.init cycles (fun c -> wait_result (nonblocking comm c)))
        | Persistent ->
            let req, refresh, result = init comm in
            let out =
              List.init cycles (fun c ->
                  refresh c;
                  Request.start req;
                  Request.wait_p req;
                  result ())
            in
            Request.free_p req;
            Array.concat out)
  in
  (Array.map Option.get results, report.Engine.max_time)

let drivers_agree ~p ~blocking ~nonblocking ~init =
  let run drv = run_driver ~p drv ~blocking ~nonblocking ~init in
  let b, tb = run Blocking and n, tn = run Nonblocking and q, _ = run Persistent in
  b = n && b = q && tb = tn

let gen_drivers = QCheck.(triple (int_range 1 9) (int_bound 1_000_000) (int_range 0 40))

let prop_allreduce_drivers =
  QCheck.Test.make ~name:"allreduce: blocking = persistent = nonblocking" ~count:20
    gen_drivers (fun (p, seed, len) ->
      List.for_all
        (fun (algo, op) ->
          with_overrides
            [ (Coll_algo.Allreduce, Some algo) ]
            (fun () ->
              let input comm c = cycle_data ~seed ~rank:(Comm.rank comm) ~cycle:c ~len in
              drivers_agree ~p
                ~blocking:(fun comm c -> Coll.allreduce comm Datatype.int op (input comm c))
                ~nonblocking:(fun comm c ->
                  Coll.iallreduce comm Datatype.int op (input comm c))
                ~init:(fun comm ->
                  let src = Array.make len 0 and dst = Array.make len 0 in
                  ( Coll.allreduce_init comm Datatype.int op ~src ~dst,
                    (fun c -> Array.blit (input comm c) 0 src 0 len),
                    fun () -> Array.copy dst ))))
        [
          (Coll_algo.Reduce_bcast, Reduce_op.int_sum);
          (Coll_algo.Recursive_doubling, Reduce_op.int_sum);
          (Coll_algo.Rabenseifner, Reduce_op.int_sum);
          (Coll_algo.Rabenseifner, nc_op ());
        ])

let prop_bcast_drivers =
  QCheck.Test.make ~name:"bcast: blocking = persistent = nonblocking" ~count:20 gen_drivers
    (fun (p, seed, len) ->
      let root = seed mod p in
      let payload c = cycle_data ~seed ~rank:root ~cycle:c ~len in
      let data comm c = if Comm.rank comm = root then Some (payload c) else None in
      List.for_all
        (fun algo ->
          with_overrides
            [ (Coll_algo.Bcast, Some algo) ]
            (fun () ->
              drivers_agree ~p
                ~blocking:(fun comm c -> Coll.bcast comm Datatype.int ~root (data comm c))
                ~nonblocking:(fun comm c ->
                  Coll.ibcast comm Datatype.int ~root (data comm c))
                ~init:(fun comm ->
                  let buf = Array.make len 0 in
                  ( Coll.bcast_init comm Datatype.int ~root buf,
                    (fun c ->
                      if Comm.rank comm = root then Array.blit (payload c) 0 buf 0 len),
                    fun () -> Array.copy buf ))))
        [ Coll_algo.Binomial; Coll_algo.Scatter_allgather ])

let prop_reduce_scatter_drivers =
  QCheck.Test.make ~name:"reduce_scatter: blocking = persistent = nonblocking" ~count:20
    gen_drivers (fun (p, seed, extra) ->
      (* A ragged split, with empty blocks. *)
      let recv_counts =
        Array.init p (fun r ->
            Xoshiro.hash_int ~seed ~stream:95 ~counter:r ~bound:(extra + 1))
      in
      let total = Array.fold_left ( + ) 0 recv_counts in
      let input comm c = cycle_data ~seed ~rank:(Comm.rank comm) ~cycle:c ~len:total in
      List.for_all
        (fun algo ->
          with_overrides
            [ (Coll_algo.Reduce_scatter, Some algo) ]
            (fun () ->
              let op = Reduce_op.int_sum in
              drivers_agree ~p
                ~blocking:(fun comm c ->
                  Coll.reduce_scatter comm Datatype.int op ~recv_counts (input comm c))
                ~nonblocking:(fun comm c ->
                  Coll.ireduce_scatter comm Datatype.int op ~recv_counts (input comm c))
                ~init:(fun comm ->
                  let src = Array.make total 0 in
                  let dst = Array.make recv_counts.(Comm.rank comm) 0 in
                  ( Coll.reduce_scatter_init comm Datatype.int op ~recv_counts ~src ~dst,
                    (fun c -> Array.blit (input comm c) 0 src 0 total),
                    fun () -> Array.copy dst ))))
        [ Coll_algo.Reduce_scatterv; Coll_algo.Pairwise ])

(* alltoallv has no persistent form: blocking against nonblocking only. *)
let prop_alltoallv_drivers =
  QCheck.Test.make ~name:"alltoallv: blocking = nonblocking" ~count:20 gen_drivers
    (fun (p, seed, extra) ->
      let count ~src ~dst =
        Xoshiro.hash_int ~seed ~stream:(96 + src) ~counter:dst ~bound:(extra + 1)
      in
      let call comm c k =
        let r = Comm.rank comm in
        let send_counts = Array.init p (fun d -> count ~src:r ~dst:d) in
        let recv_counts = Array.init p (fun s -> count ~src:s ~dst:r) in
        let data =
          cycle_data ~seed ~rank:r ~cycle:c ~len:(Array.fold_left ( + ) 0 send_counts)
        in
        k comm Datatype.int ~send_counts
          ~send_displs:(Coll.exclusive_prefix_sum send_counts)
          ~recv_counts
          ~recv_displs:(Coll.exclusive_prefix_sum recv_counts)
          data
      in
      let run drv =
        run_driver ~p drv
          ~blocking:(fun comm c -> call comm c Coll.alltoallv)
          ~nonblocking:(fun comm c -> call comm c Coll.ialltoallv)
          ~init:(fun _ -> assert false)
      in
      run Blocking = run Nonblocking)

(* A nonblocking collective is one MPI call: one profile entry under its
   own name with its real payload bytes, whatever algorithm runs it, and
   no entry for the blocking operations it is built from. *)
let test_icollective_recorded_once () =
  let p = 4 and n = 10 in
  List.iter
    (fun algo ->
      with_overrides
        [ (Coll_algo.Allreduce, Some algo) ]
        (fun () ->
          let report =
            Engine.run ~model:Net_model.zero_cost ~ranks:p (fun comm ->
                let sum = Reduce_op.int_sum in
                ignore (wait_result (Coll.iallreduce comm Datatype.int sum (Array.make n 1))))
          in
          let rows op = List.filter (fun (o, _, _) -> o = op) report.Engine.profile in
          let name = Coll_algo.algo_name algo in
          Alcotest.(check (list (triple string int int)))
            (name ^ ": one iallreduce entry, 8n bytes per call")
            [ ("iallreduce", p, p * 8 * n) ]
            (rows "iallreduce");
          List.iter
            (fun op ->
              Alcotest.(check int) (name ^ ": no " ^ op ^ " entry") 0 (List.length (rows op)))
            [ "allreduce"; "reduce"; "bcast" ]))
    [ Coll_algo.Reduce_bcast; Coll_algo.Recursive_doubling; Coll_algo.Rabenseifner ]

(* The overlap setting: 8 ranks, a 64 KiB int allreduce, Ethernet. *)
let overlap_ranks = 8

let overlap_elems = 8192

let overlap_makespan body =
  let report =
    Engine.run ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
      ~ranks:overlap_ranks body
  in
  report.Engine.max_time

let blocking_allreduce_makespan () =
  overlap_makespan (fun comm ->
      ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum (Array.make overlap_elems 1)))

(* Post the iallreduce, run [between req] until it returns, wait, and
   check the result. *)
let iallreduce_around between comm =
  let data = Array.make overlap_elems 1 in
  let req, cell = Coll.iallreduce comm Datatype.int Reduce_op.int_sum data in
  between req;
  ignore (Request.wait req);
  if Option.get !cell <> Array.make overlap_elems overlap_ranks then
    failwith "wrong iallreduce result"

(* Overlap: after posting, each rank computes half as long as the blocking
   allreduce takes, in 16 chunks with a test between them.  The schedule
   advances in those tests, so the compute hides in the collective's wire
   latency: the makespan stays within 10% of the larger of the two
   instead of their sum. *)
let test_iallreduce_overlaps_compute () =
  let chunks = 16 in
  let blocking = blocking_allreduce_makespan () in
  let compute = blocking /. 2. in
  let overlapped =
    overlap_makespan (fun comm ->
        let rt = Comm.runtime comm and me = Comm.world_rank comm in
        iallreduce_around
          (fun req ->
            for _ = 1 to chunks do
              Runtime.charge_compute rt me (compute /. float_of_int chunks);
              ignore (Request.test req);
              Scheduler.yield ()
            done)
          comm)
  in
  let bound = 1.1 *. Float.max compute blocking in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.1fus <= %.1fus (compute %.1fus, blocking %.1fus)"
       (overlapped *. 1e6) (bound *. 1e6) (compute *. 1e6) (blocking *. 1e6))
    true (overlapped <= bound)

(* A polling loop advances no virtual time; each test that finds the
   clock where the previous one left it takes a message that is merely in
   the mailbox, so the loop still completes, at the blocking makespan. *)
let test_polling_loop_completes () =
  let polled =
    overlap_makespan
      (iallreduce_around (fun req ->
           while Request.test req = None do
             Scheduler.yield ()
           done))
  in
  Alcotest.(check (float 1e-12))
    "polled makespan = blocking" (blocking_allreduce_makespan ()) polled

(* Two nonblocking collectives in flight on one communicator, advanced by
   tests in opposite orders on even and odd ranks, with a blocking
   allreduce in between: each posted instance has its own tag window, so
   no message matches another instance's receive. *)
let test_concurrent_icollectives () =
  let p = 6 and n = 5000 in
  let results =
    Engine.run_values ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only ~ranks:p
      (fun comm ->
        let r = Comm.rank comm in
        let rt = Comm.runtime comm and me = Comm.world_rank comm in
        let sum = Reduce_op.int_sum in
        let a = Coll.iallreduce comm Datatype.int sum (Array.make n (r + 1)) in
        let b = Coll.iallreduce comm Datatype.int sum (Array.make 3 (10 * r)) in
        let mid = Coll.allreduce comm Datatype.int sum [| r |] in
        let pending = ref (if r mod 2 = 0 then [ b; a ] else [ a; b ]) in
        for _ = 1 to 8 do
          Runtime.charge_compute rt me 20e-6;
          pending := List.filter (fun (req, _) -> Request.test req = None) !pending
        done;
        List.iter (fun (req, _) -> ignore (Request.wait req)) !pending;
        let result (_, cell) = (Option.get !cell).(0) in
        (result a, result b, mid.(0)))
  in
  Array.iter
    (fun got ->
      Alcotest.(check (triple int int int))
        "each instance reduces its own data"
        (p * (p + 1) / 2, 10 * p * (p - 1) / 2, p * (p - 1) / 2)
        got)
    results

(* A non-commutative reduce folds in rank order whatever the root: the
   root starts from rank 0's contribution, not its own. *)
let prop_nc_reduce_any_root =
  QCheck.Test.make ~name:"non-commutative reduce at any root = rank-ordered fold" ~count:30
    gen_p_and_seed (fun (p, seed) ->
      let roots = List.sort_uniq compare [ p - 1; seed mod p ] in
      let expected = nc_expected p in
      List.for_all
        (fun root ->
          let results =
            run_checked ~ranks:p (fun comm ->
                let data = nc_data ~rank:(Comm.rank comm) in
                Coll.reduce comm Datatype.int (nc_op ()) ~root data)
          in
          Array.for_all Fun.id
            (Array.mapi
               (fun r res -> if r = root then res = expected else res = [||])
               results))
        roots)

(* Posted collectives take tag windows clear of every fixed internal tag:
   a 2-D halo exchange on a cartesian communicator runs while two
   iallreduces are in flight on it.  Reduce + bcast is pinned, so each
   leaf's reduce message is already queued when the halo exchange
   receives from the same neighbour. *)
let test_halo_beside_icollectives () =
  let p = 4 in
  let results =
    with_overrides
      [ (Coll_algo.Allreduce, Some Coll_algo.Reduce_bcast) ]
      (fun () ->
        run_checked ~ranks:p (fun comm ->
            let cart = Cart.create comm ~dims:[| 2; 2 |] ~periods:[| true; true |] in
            let comm = Cart.comm cart in
            let r = Comm.rank comm in
            let sum = Reduce_op.int_sum in
            let a = Coll.iallreduce comm Datatype.int sum [| r |] in
            let b = Coll.iallreduce comm Datatype.int sum [| 10 * r |] in
            let halo dim =
              match
                Cart.halo_exchange cart Datatype.int ~dim ~to_prev:[| r; dim |]
                  ~to_next:[| r; dim |]
              with
              | Some prev, Some next -> (prev, next)
              | _ -> Alcotest.fail "periodic grid has both neighbours"
            in
            let h0 = halo 0 and h1 = halo 1 in
            let result (req, cell) =
              ignore (Request.wait req);
              (Option.get !cell).(0)
            in
            let neighbour dim disp = Option.get (snd (Cart.shift cart ~dim ~disp)) in
            let expect_halo dim (prev, next) =
              prev = [| neighbour dim (-1); dim |] && next = [| neighbour dim 1; dim |]
            in
            expect_halo 0 h0 && expect_halo 1 h1 && result a = 6 && result b = 60))
  in
  Alcotest.(check bool) "halos and reductions intact on every rank" true
    (Array.for_all Fun.id results)

(* A posted or persistent collective's traffic carries its algorithm's
   label in the communication matrix, as the blocking call's does. *)
let test_posted_comm_matrix_label () =
  let algo = Coll_algo.Recursive_doubling in
  let labels body =
    let _, report =
      with_overrides
        [ (Coll_algo.Allreduce, Some algo) ]
        (fun () ->
          Engine.run_collect ~model:Net_model.zero_cost ~comm_matrix:true ~ranks:4 body)
    in
    List.sort_uniq compare
      (List.map
         (fun e -> e.Comm_matrix.cm_label)
         (Comm_matrix.entries report.Engine.comm_matrix))
  in
  let expected = [ Coll_algo.span_name Coll_algo.Allreduce algo ] in
  let sum = Reduce_op.int_sum in
  Alcotest.(check (list string)) "blocking" expected
    (labels (fun comm -> ignore (Coll.allreduce comm Datatype.int sum [| 1; 2 |])));
  Alcotest.(check (list string)) "nonblocking" expected
    (labels (fun comm ->
         ignore (wait_result (Coll.iallreduce comm Datatype.int sum [| 1; 2 |]))));
  Alcotest.(check (list string)) "persistent" expected
    (labels (fun comm ->
         let src = [| 1; 2 |] and dst = [| 0; 0 |] in
         let req = Coll.allreduce_init comm Datatype.int sum ~src ~dst in
         for _ = 1 to 2 do
           Request.start req;
           Request.wait_p req
         done;
         Request.free_p req))

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
    qtest prop_allreduce_drivers;
    qtest prop_bcast_drivers;
    qtest prop_reduce_scatter_drivers;
    qtest prop_alltoallv_drivers;
    Alcotest.test_case "i-collective recorded once" `Quick test_icollective_recorded_once;
    Alcotest.test_case "iallreduce overlaps compute" `Quick
      test_iallreduce_overlaps_compute;
    Alcotest.test_case "polling loop completes" `Quick test_polling_loop_completes;
    Alcotest.test_case "concurrent i-collectives" `Quick test_concurrent_icollectives;
    qtest prop_nc_reduce_any_root;
    Alcotest.test_case "halo exchange beside i-collectives" `Quick
      test_halo_beside_icollectives;
    Alcotest.test_case "posted traffic keeps its comm-matrix label" `Quick
      test_posted_comm_matrix_label;
  ]

let () = Alcotest.run "coll" [ ("coll", tests) ]
