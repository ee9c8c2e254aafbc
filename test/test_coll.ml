(* Property tests for every collective: outputs must equal a sequential
   reference computed from all ranks' inputs, for random rank counts,
   element counts and values. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

(* Generator scaffolding: a rank count in 1..9 and per-rank integer data of
   varying lengths, derived deterministically from a qcheck seed. *)
let gen_p_and_seed = QCheck.(pair (Arb.ranks 1 9) (int_bound 1_000_000))

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

(* Malformed send displacements are usage errors, checked before any
   element is packed: for a framed type the payload bytes are measured
   from those blocks first. *)
let test_alltoallv_bad_send_displs () =
  let outcome dt data ~send_displs =
    match
      Engine.run ~model:Net_model.zero_cost ~ranks:2 (fun comm ->
          ignore
            (Coll.alltoallv comm dt ~send_counts:[| 1; 1 |] ~send_displs
               ~recv_counts:[| 1; 1 |] ~recv_displs:[| 0; 1 |] data))
    with
    | _ -> "ok"
    | exception Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> "usage error"
  in
  let word = Bytes.of_string "w" in
  List.iter
    (fun (name, send_displs) ->
      Alcotest.(check string) ("int, " ^ name) "usage error"
        (outcome Datatype.int [| 1; 2 |] ~send_displs);
      Alcotest.(check string) ("bytes, " ^ name) "usage error"
        (outcome Datatype.bytes [| word; word |] ~send_displs))
    [ ("short", [| 0 |]); ("past the end", [| 0; 2 |]); ("negative", [| -1; 1 |]) ]

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

(* Heavy-sanitizer run, with [pins] in its model, that requires every
   rank to survive. *)
let run_checked ?(pins = []) ~ranks body =
  let results, _ =
    Engine.run_collect
      ~model:(Coll_algo.pin pins Net_model.zero_cost)
      ~check_level:Check.Heavy ~ranks body
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
            run_checked ~pins:[ (Coll_algo.Allreduce, Some algo) ] ~ranks:p (fun comm ->
                let r = Comm.rank comm in
                let sum =
                  Coll.allreduce comm Datatype.int Reduce_op.int_sum
                    (data_for ~seed ~rank:r ~len)
                in
                let chained =
                  Coll.allreduce comm Datatype.int (nc_op ()) (nc_data ~rank:r)
                in
                (sum, chained))
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
            run_checked ~pins:[ (Coll_algo.Allgather, Some algo) ] ~ranks:p (fun comm ->
                Coll.allgather comm Datatype.int
                  (data_for ~seed ~rank:(Comm.rank comm) ~len))
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
            run_checked ~pins:[ (Coll_algo.Bcast, Some algo) ] ~ranks:p (fun comm ->
                Coll.bcast comm Datatype.int ~root
                  (if Comm.rank comm = root then Some expected else None))
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
          let pins = [ (Coll_algo.Reduce_scatter, Some algo) ] in
          let results =
            run_checked ~pins ~ranks:p (fun comm ->
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
                (mine, nc))
          in
          Array.for_all
            (fun r ->
              let mine, nc = results.(r) in
              mine = Array.sub reduced displs.(r) recv_counts.(r)
              && (p > nc_len || nc = [| nc_exp.(r) |]))
            (Array.init p Fun.id))
        [ Coll_algo.Reduce_scatterv; Coll_algo.Pairwise ])

(* Pins belong to the run's model: two pooled runs pinned to different
   allreduce algorithms (tiny messages, where the automatic choice is
   recursive doubling) each count only their own algorithm, on every
   rank, however the pool interleaves them. *)
let test_pins_per_run () =
  let calls = 20 and ranks = 4 in
  let run spec () =
    let pins = Result.get_ok (Coll_algo.parse_spec spec) in
    let _, report =
      Engine.run_collect ~model:(Coll_algo.pin pins Net_model.omnipath) ~ranks (fun comm ->
          for _ = 1 to calls do
            ignore
              (Coll.allreduce comm Datatype.int Reduce_op.int_sum (Array.init 8 Fun.id))
          done)
    in
    report.Engine.stats
  in
  let pinned = [ Coll_algo.Rabenseifner; Coll_algo.Recursive_doubling ] in
  let stats =
    Engine.run_many
      (List.map (fun a -> run ("allreduce=" ^ Coll_algo.algo_name a)) pinned)
  in
  List.iter2
    (fun algo st ->
      List.iter
        (fun other ->
          let name = Coll_algo.counter_name Coll_algo.Allreduce other in
          Alcotest.(check int)
            (Coll_algo.algo_name algo ^ " run: " ^ name)
            (if other = algo then calls * ranks else 0)
            (Stats.count (Stats.counter st name)))
        [ Coll_algo.Reduce_bcast; Coll_algo.Recursive_doubling; Coll_algo.Rabenseifner ])
    pinned stats

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
  List.iter
    (fun (e : Trace_stream.event) ->
      if e.cat = "coll" && e.name = "allreduce.recursive_doubling" then span_seen := true)
    (Trace.events report.Engine.trace 0);
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
let run_driver ?(pins = []) ~p drv ~blocking ~nonblocking ~init =
  let results, report =
    Engine.run_collect
      ~model:(Coll_algo.pin pins Net_model.ethernet)
      ~clock_mode:Runtime.Virtual_only
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
                  ignore (Request.wait req);
                  result ())
            in
            Request.free req;
            Array.concat out)
  in
  (Array.map Option.get results, report.Engine.max_time)

let drivers_agree ~pins ~p ~blocking ~nonblocking ~init =
  let run drv = run_driver ~pins ~p drv ~blocking ~nonblocking ~init in
  let b, tb = run Blocking and n, tn = run Nonblocking and q, _ = run Persistent in
  b = n && b = q && tb = tn

let gen_drivers = QCheck.(triple (Arb.ranks 1 9) (int_bound 1_000_000) (int_range 0 40))

let prop_allreduce_drivers =
  QCheck.Test.make ~name:"allreduce: blocking = persistent = nonblocking" ~count:20
    gen_drivers (fun (p, seed, len) ->
      List.for_all
        (fun (algo, op) ->
          let input comm c = cycle_data ~seed ~rank:(Comm.rank comm) ~cycle:c ~len in
          drivers_agree ~pins:[ (Coll_algo.Allreduce, Some algo) ] ~p
            ~blocking:(fun comm c -> Coll.allreduce comm Datatype.int op (input comm c))
            ~nonblocking:(fun comm c ->
              Coll.iallreduce comm Datatype.int op (input comm c))
            ~init:(fun comm ->
              let src = Array.make len 0 and dst = Array.make len 0 in
              ( Coll.allreduce_init comm Datatype.int op ~src ~dst,
                (fun c -> Array.blit (input comm c) 0 src 0 len),
                fun () -> Array.copy dst )))
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
          drivers_agree ~pins:[ (Coll_algo.Bcast, Some algo) ] ~p
            ~blocking:(fun comm c -> Coll.bcast comm Datatype.int ~root (data comm c))
            ~nonblocking:(fun comm c ->
              Coll.ibcast comm Datatype.int ~root (data comm c))
            ~init:(fun comm ->
              let buf = Array.make len 0 in
              ( Coll.bcast_init comm Datatype.int ~root buf,
                (fun c ->
                  if Comm.rank comm = root then Array.blit (payload c) 0 buf 0 len),
                fun () -> Array.copy buf )))
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
          let op = Reduce_op.int_sum in
          drivers_agree ~pins:[ (Coll_algo.Reduce_scatter, Some algo) ] ~p
            ~blocking:(fun comm c ->
              Coll.reduce_scatter comm Datatype.int op ~recv_counts (input comm c))
            ~nonblocking:(fun comm c ->
              Coll.ireduce_scatter comm Datatype.int op ~recv_counts (input comm c))
            ~init:(fun comm ->
              let src = Array.make total 0 in
              let dst = Array.make recv_counts.(Comm.rank comm) 0 in
              ( Coll.reduce_scatter_init comm Datatype.int op ~recv_counts ~src ~dst,
                (fun c -> Array.blit (input comm c) 0 src 0 total),
                fun () -> Array.copy dst )))
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
      let model = Coll_algo.pin [ (Coll_algo.Allreduce, Some algo) ] Net_model.zero_cost in
      let report =
        Engine.run ~model ~ranks:p (fun comm ->
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
        [ "allreduce"; "reduce"; "bcast" ])
    [ Coll_algo.Reduce_bcast; Coll_algo.Recursive_doubling; Coll_algo.Rabenseifner ]

(* The overlap setting: 8 ranks, a 64 KiB int allreduce, Ethernet, with
   Rabenseifner pinned.  Its 6 latency-bound rounds are what the compute
   hides in; the cost picks recursive doubling here (264 against 277us),
   whose 3 rounds leave too little wire latency to hide half the call. *)
let overlap_ranks = 8

let overlap_elems = 8192

let overlap_makespan body =
  let report =
    Engine.run
      ~model:
        (Coll_algo.pin
           [ (Coll_algo.Allreduce, Some Coll_algo.Rabenseifner) ]
           Net_model.ethernet)
      ~clock_mode:Runtime.Virtual_only ~ranks:overlap_ranks body
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
  let pins = [ (Coll_algo.Allreduce, Some Coll_algo.Reduce_bcast) ] in
  let results =
    run_checked ~pins ~ranks:p (fun comm ->
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
        expect_halo 0 h0 && expect_halo 1 h1 && result a = 6 && result b = 60)
  in
  Alcotest.(check bool) "halos and reductions intact on every rank" true
    (Array.for_all Fun.id results)

(* A posted or persistent collective's traffic carries its algorithm's
   label in the communication matrix, as the blocking call's does. *)
let test_posted_comm_matrix_label () =
  let algo = Coll_algo.Recursive_doubling in
  let labels body =
    let _, report =
      Engine.run_collect
        ~model:(Coll_algo.pin [ (Coll_algo.Allreduce, Some algo) ] Net_model.zero_cost)
        ~comm_matrix:true ~ranks:4 body
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
           ignore (Request.wait req)
         done;
         Request.free req))

(* --- One progress rule --- *)

(* Each rank posts a mix of nonblocking and started persistent allreduces,
   then waits for them in an order of its own: rotated by its rank,
   reversed on odd ranks.  A wait advances every schedule its rank has in
   flight, so any order completes, with the blocking results.  The cost
   picks recursive doubling at these lengths, so odd seeds pin
   Rabenseifner to cover its schedule too. *)
let prop_any_wait_order =
  QCheck.Test.make ~name:"requests complete in any per-rank wait order" ~count:25
    QCheck.(pair (Arb.ranks 2 8) (int_bound 1_000_000))
    (fun (p, seed) ->
      let k = 2 + (seed mod 3) in
      let len i = Xoshiro.hash_int ~seed ~stream:98 ~counter:i ~bound:600 in
      let persistent i = Xoshiro.hash_int ~seed ~stream:99 ~counter:i ~bound:2 = 1 in
      let input r i = data_for ~seed:(seed + i) ~rank:r ~len:(len i) in
      let sum = Reduce_op.int_sum in
      let expected =
        List.init k (fun i ->
            let xs = List.init p (fun r -> input r i) in
            Array.init (len i) (fun j -> List.fold_left (fun acc a -> acc + a.(j)) 0 xs))
      in
      let rabenseifner = (Coll_algo.Allreduce, Some Coll_algo.Rabenseifner) in
      let pins = if seed mod 2 = 1 then [ rabenseifner ] else [] in
      let results =
        Engine.run_values ~model:(Coll_algo.pin pins Net_model.ethernet)
          ~clock_mode:Runtime.Virtual_only ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let posted =
              List.init k (fun i ->
                  let src = input r i in
                  if persistent i then begin
                    let dst = Array.make (len i) 0 in
                    let req = Coll.allreduce_init comm Datatype.int sum ~src ~dst in
                    Request.start req;
                    (req, fun () -> dst)
                  end
                  else
                    let req, cell = Coll.iallreduce comm Datatype.int sum src in
                    (req, fun () -> Option.get !cell))
            in
            let order = List.init k (fun j -> (j + r) mod k) in
            let order = if r mod 2 = 1 then List.rev order else order in
            List.iter (fun i -> ignore (Request.wait (fst (List.nth posted i)))) order;
            List.map (fun (_, result) -> result ()) posted)
      in
      Array.for_all (fun got -> got = expected) results)

(* A persistent cycle, a nonblocking collective and a point-to-point
   receive are one request type: wait_any, test_some and wait_all take
   them in one list. *)
let test_mixed_request_list () =
  let p = 4 and n = 300 in
  let results =
    Engine.run_values ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only ~ranks:p
      (fun comm ->
        let r = Comm.rank comm in
        let left = (r + p - 1) mod p and right = (r + 1) mod p in
        let sum = Reduce_op.int_sum in
        let src = Array.make n (r + 1) and dst = Array.make n 0 in
        let cycle = Coll.allreduce_init comm Datatype.int sum ~src ~dst in
        Request.start cycle;
        let icoll, cell = Coll.iallreduce comm Datatype.int sum [| r |] in
        let into = [| -1 |] in
        let recv = P2p.irecv_into comm Datatype.int ~source:left ~tag:5 into in
        P2p.send comm Datatype.int ~dest:right ~tag:5 [| r |];
        let reqs = [ cycle; icoll; recv ] in
        let first, _ = Request.wait_any reqs in
        let rest = List.filteri (fun i _ -> i <> first) reqs in
        let tested = List.map (fun (i, _) -> List.nth rest i) (Request.test_some rest) in
        ignore (Request.wait_all (List.filter (fun q -> not (List.memq q tested)) rest));
        (* The finished cycle re-arms, beside a fresh receive. *)
        src.(0) <- 0;
        Request.start cycle;
        let recv = P2p.irecv_into comm Datatype.int ~source:left ~tag:6 into in
        P2p.send comm Datatype.int ~dest:right ~tag:6 [| 10 * r |];
        ignore (Request.wait_all [ recv; cycle ]);
        Request.free cycle;
        (dst.(0), dst.(1), (Option.get !cell).(0), into.(0)))
  in
  Array.iteri
    (fun r (first, second, icoll, from_left) ->
      let what = Printf.sprintf "rank %d: " r in
      let left = (r + p - 1) mod p in
      Alcotest.(check int) (what ^ "re-armed cycle reads the zeroed element") 0 first;
      Alcotest.(check int) (what ^ "cycle") (p * (p + 1) / 2) second;
      Alcotest.(check int) (what ^ "i-collective") (p * (p - 1) / 2) icoll;
      Alcotest.(check int) (what ^ "left neighbour's second send") (10 * left) from_left)
    results

(* A deadlock report names a schedule's wait by operation, algorithm and
   peer, never by its internal window tag: rank 3 never posts its
   allreduce, so the others wait for it forever. *)
let test_deadlock_names_schedule_wait () =
  let report =
    match
      Engine.run ~model:Net_model.zero_cost ~ranks:4 (fun comm ->
          if Comm.rank comm < 3 then
            let sum = Reduce_op.int_sum in
            ignore (wait_result (Coll.iallreduce comm Datatype.int sum [| 1 |])))
    with
    | _ -> Alcotest.fail "expected a deadlock"
    | exception (Scheduler.Deadlock _ as e) -> Printexc.to_string e
  in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length report && (String.sub report i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool)
    (report ^ "\nnames the operation, algorithm and peer")
    true
    (contains "wait: iallreduce.recursive_doubling (src ");
  let numbers =
    String.map (fun c -> if c >= '0' && c <= '9' then c else ' ') report
    |> String.split_on_char ' '
    |> List.filter_map int_of_string_opt
  in
  Alcotest.(check (list int)) "no window tag" []
    (List.filter (fun v -> v >= P2p.first_window_op) numbers)

(* Every internal tag names one protocol: the table hands each one its own
   id, every id fits a posted instance's window, and a windowed tag looks
   up the same entry as the blocking one. *)
let test_tag_table () =
  let tags =
    Coll_algo.
      [
        tag_barrier; tag_bcast_binomial; tag_gather; tag_scatter; tag_allgather_bruck;
        tag_allgatherv; tag_alltoall; tag_alltoallv; tag_alltoallw; tag_reduce; tag_scan;
        tag_neighbor_allgather; tag_allreduce_rdbl; tag_reduce_scatter_pairwise;
        tag_bcast_scatter; tag_bcast_ring; tag_allreduce_rabenseifner; tag_allgather_ring;
        tag_exscan; tag_neighbor_alltoallv; tag_comm_split; tag_halo_to_prev;
        tag_halo_to_next;
      ]
  in
  Alcotest.(check int) "distinct ids" (List.length tags)
    (List.length (List.sort_uniq compare tags));
  List.iter
    (fun tag ->
      let id = tag - (Comm.max_user_tag + 1) in
      Alcotest.(check bool) (Printf.sprintf "id %d fits a window" id) true
        (id >= 0 && id < Coll_algo.tag_window);
      let name = Coll_algo.tag_name tag in
      Alcotest.(check bool) (Printf.sprintf "id %d is named" id) true
        (name <> Coll_algo.p2p_name && name <> "internal");
      List.iter
        (fun gen ->
          let windowed = tag + Coll_algo.first_window_op + (Coll_algo.tag_window * gen) in
          Alcotest.(check string)
            (Printf.sprintf "id %d in window %d" id gen)
            name (Coll_algo.tag_name windowed))
        [ 0; 1; 7; 1000 ])
    tags;
  Alcotest.(check string) "the allreduce id keeps its number"
    (Coll_algo.span_name Coll_algo.Allreduce Coll_algo.Recursive_doubling)
    (Coll_algo.tag_name (Comm.max_user_tag + 1 + 12));
  Alcotest.(check string) "user tags are p2p" Coll_algo.p2p_name
    (Coll_algo.tag_name Comm.max_user_tag);
  Alcotest.(check string) "a user tag is described by its number" "5"
    (Coll_algo.describe_tag 5)

(* The sorted, distinct communication-matrix labels of [body] at [ranks]. *)
let matrix_labels ?(model = Net_model.zero_cost) ~ranks body =
  let _, report = Engine.run_collect ~model ~comm_matrix:true ~ranks body in
  List.sort_uniq compare
    (List.map (fun e -> e.Comm_matrix.cm_label) (Comm_matrix.entries report.Engine.comm_matrix))

(* Collectives that run one algorithm are labelled with their own name,
   with no algorithm dispatch around them. *)
let test_comm_matrix_single_algorithm_labels () =
  let p = 4 in
  let check name body =
    Alcotest.(check (list string)) name [ name ] (matrix_labels ~ranks:p body)
  in
  check "alltoallv" (fun comm ->
      let counts = Array.make p 2 and displs = Array.init p (fun i -> 2 * i) in
      ignore
        (Coll.alltoallv comm Datatype.int ~send_counts:counts ~send_displs:displs
           ~recv_counts:counts ~recv_displs:displs (Array.make (2 * p) 1)));
  check "allgatherv" (fun comm ->
      ignore
        (Coll.allgatherv comm Datatype.int ~recv_counts:(Array.make p 1)
           [| Comm.rank comm |]));
  check "gather" (fun comm -> ignore (Coll.gather comm Datatype.int ~root:0 [| 1; 2 |]));
  check "barrier" Coll.barrier;
  check "scan" (fun comm -> ignore (Coll.scan comm Datatype.int Reduce_op.int_sum [| 1 |]))

(* At p = 5 the pof2 preamble folds rank 0 into rank 1 and copies the
   result back: those messages carry the pinned algorithm's label too. *)
let test_comm_matrix_pof2_preamble_label () =
  List.iter
    (fun algo ->
      let model = Coll_algo.pin [ (Coll_algo.Allreduce, Some algo) ] Net_model.zero_cost in
      Alcotest.(check (list string))
        (Coll_algo.algo_name algo)
        [ Coll_algo.span_name Coll_algo.Allreduce algo ]
        (matrix_labels ~model ~ranks:5 (fun comm ->
             ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum (Array.make 8 1)))))
    [ Coll_algo.Recursive_doubling; Coll_algo.Rabenseifner ]

(* A split's traffic is labelled with the split, not with a collective. *)
let test_comm_matrix_split_label () =
  Alcotest.(check (list string)) "split" [ "comm_split" ]
    (matrix_labels ~ranks:4 (fun comm ->
         ignore (Comm_ops.split comm ~color:(Comm.rank comm mod 2) ())))

(* A posted non-commutative allreduce runs the reduce+bcast lowering: the
   reduce phase gathers to the root (order matters), the bcast phase is a
   binomial tree, and each is labelled with the operation it runs. *)
let test_comm_matrix_lowered_phase_labels () =
  let op = Reduce_op.custom ~commutative:false ~name:"append" (fun a b -> (a * 10) + b) in
  Alcotest.(check (list string)) "iallreduce"
    [ Coll_algo.span_name Coll_algo.Bcast Coll_algo.Binomial; "gather" ]
    (matrix_labels ~ranks:4 (fun comm ->
         ignore (wait_result (Coll.iallreduce comm Datatype.int op [| Comm.rank comm |]))))

(* A rank blocked in a blocking collective is reported by the collective
   and algorithm of the message it waits for, never by the raw internal
   tag, with the sanitizer off and on: rank 3 never enters the
   allreduce. *)
let test_deadlock_names_blocking_collective () =
  let report check_level =
    match
      Engine.run ~model:Net_model.zero_cost ~check_level ~ranks:4 (fun comm ->
          if Comm.rank comm < 3 then
            ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum [| 1 |]))
    with
    | _ -> Alcotest.fail "expected a deadlock"
    | exception (Scheduler.Deadlock _ as e) -> Printexc.to_string e
    | exception Errdefs.Mpi_error { code = Errdefs.Err_deadlock; msg } -> msg
  in
  List.iter
    (fun (level, name) ->
      let report = report level in
      let contains sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length report && (String.sub report i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s\nnames the collective and algorithm" name report)
        true
        (contains "allreduce.recursive_doubling");
      let numbers =
        String.map (fun c -> if c >= '0' && c <= '9' then c else ' ') report
        |> String.split_on_char ' '
        |> List.filter_map int_of_string_opt
      in
      Alcotest.(check (list int)) (name ^ ": no internal tag") []
        (List.filter (fun v -> v > Comm.max_user_tag) numbers))
    [ (Check.Off, "sanitizer off"); (Check.Light, "light sanitizer") ]

(* A scan whose contributions differ in length fails like every other
   collective receive: ERR_COUNT through the communicator's handler. *)
let test_scan_count_mismatch () =
  let outcome comm f =
    match f comm with
    | _ -> "ok"
    | exception Errdefs.Mpi_error { code; _ } -> Errdefs.code_name code
    | exception Errdefs.Usage_error _ -> "usage error"
  in
  let sum = Reduce_op.int_sum in
  let data comm = Array.make (Comm.rank comm + 1) 1 in
  let results op =
    Engine.run_values ~model:Net_model.zero_cost ~ranks:2 (fun comm -> outcome comm op)
  in
  Alcotest.(check (array string)) "allreduce" [| "ERR_TRUNCATE"; "ERR_COUNT" |]
    (results (fun comm -> ignore (Coll.allreduce comm Datatype.int sum (data comm))));
  Alcotest.(check (array string)) "scan" [| "ok"; "ERR_COUNT" |]
    (results (fun comm -> ignore (Coll.scan comm Datatype.int sum (data comm))));
  Alcotest.(check (array string)) "exscan" [| "ok"; "ERR_COUNT" |]
    (results (fun comm -> ignore (Coll.exscan comm Datatype.int sum (data comm))))

(* --- Selection is the cost model's argmin --- *)

(* One call of [op] over [total] ints at [p] ranks; allgather's block is
   the total divided by p, reduce_scatter's blocks differ by at most one. *)
let selection_body op ~p ~total comm =
  let r = Comm.rank comm in
  let sum = Reduce_op.int_sum in
  match op with
  | Coll_algo.Allreduce ->
      ignore (Coll.allreduce comm Datatype.int sum (Array.init total (( + ) r)))
  | Coll_algo.Allgather ->
      ignore (Coll.allgather comm Datatype.int (Array.make (total / p) r))
  | Coll_algo.Bcast ->
      let data = if r = 0 then Some (Array.init total Fun.id) else None in
      ignore (Coll.bcast comm Datatype.int ~root:0 data)
  | Coll_algo.Reduce_scatter ->
      let count i = (total / p) + if i < total mod p then 1 else 0 in
      let data = Array.init total Fun.id in
      let recv_counts = Array.init p count in
      ignore (Coll.reduce_scatter comm Datatype.int sum ~recv_counts data)

let selection_algos = function
  | Coll_algo.Allreduce -> Coll_algo.[ Reduce_bcast; Recursive_doubling; Rabenseifner ]
  | Coll_algo.Allgather -> Coll_algo.[ Bruck; Ring ]
  | Coll_algo.Bcast -> Coll_algo.[ Binomial; Scatter_allgather ]
  | Coll_algo.Reduce_scatter -> Coll_algo.[ Reduce_scatterv; Pairwise ]

(* [None] when the automatic choice's makespan is within 2% of the
   fastest pinned algorithm's, and equal to it where that one leads the
   runner-up by more than 5%; otherwise the cell's times.  With the
   sanitizer on, a run must also record no finding. *)
let selection_cell ?(check_level = Check.Off) (model : Net_model.t) op ~p ~total =
  let time pin =
    let report =
      Engine.run
        ~model:(Coll_algo.pin [ (op, pin) ] model)
        ~clock_mode:Runtime.Virtual_only ~check_level ~ranks:p (selection_body op ~p ~total)
    in
    Stats.iter_counters report.Engine.stats (fun name c ->
        if String.starts_with ~prefix:"check." name && Stats.count c > 0 then
          Alcotest.failf "%s: %d findings" name (Stats.count c));
    report.Engine.max_time
  in
  let auto = time None in
  match List.sort compare (List.map (fun a -> time (Some a)) (selection_algos op)) with
  | best :: second :: _ when auto <= 1.02 *. best && (second <= 1.05 *. best || auto = best)
    ->
      None
  | times ->
      let us t = Printf.sprintf "%.4gus" (t *. 1e6) in
      Some
        (Printf.sprintf "%s %s p=%d total=%d: auto %s, pinned %s" model.name
           (Coll_algo.op_name op) p total (us auto)
           (String.concat " " (List.map us times)))

let all_ops = Coll_algo.[ Allreduce; Allgather; Bcast; Reduce_scatter ]

(* The payload rule ({!Coll_algo.choose}): selection keys on [count *
   elem_size], so a bcast, allgather or allreduce of [total] 16-byte
   strings ([Datatype.bytes], 8 bytes each by that measure) selects what
   the same count of ints selects, while its profile row records the
   24-byte frames it packs.  [None] when both hold, otherwise the cell. *)
let payload_rule_cell (model : Net_model.t) op ~p ~total =
  let run (type a) (dt : a Datatype.t) (x : a) =
    let report =
      Engine.run ~model ~clock_mode:Runtime.Virtual_only ~ranks:p (fun comm ->
          match op with
          | Coll_algo.Bcast ->
              let data = if Comm.rank comm = 0 then Some (Array.make total x) else None in
              ignore (Coll.bcast comm dt ~root:0 data)
          | Coll_algo.Allreduce ->
              let max = Reduce_op.custom ~commutative:true ~name:"max" max in
              ignore (Coll.allreduce comm dt max (Array.make total x))
          | _ -> ignore (Coll.allgather comm dt (Array.make (total / p) x)))
    in
    let algos = ref [] in
    Stats.iter_counters report.Engine.stats (fun name c ->
        if String.starts_with ~prefix:"coll.algo." name && Stats.count c > 0 then
          algos := name :: !algos);
    let name = Coll_algo.op_name op in
    let _, _, bytes = List.find (fun (o, _, _) -> o = name) report.Engine.profile in
    (List.sort compare !algos, bytes)
  in
  match op with
  | Coll_algo.Bcast | Coll_algo.Allgather | Coll_algo.Allreduce ->
      let elems =
        match op with
        | Coll_algo.Bcast -> total
        | Coll_algo.Allreduce -> p * total
        | _ -> total / p * p
      in
      let int_algos, int_bytes = run Datatype.int 0 in
      let str_algos, str_bytes = run Datatype.bytes (Bytes.make 16 'x') in
      if int_algos = str_algos && int_bytes = 8 * elems && str_bytes = 24 * elems then None
      else
        Some
          (Printf.sprintf "%s %s p=%d total=%d: ints [%s] %d B, strings [%s] %d B"
             model.name (Coll_algo.op_name op) p total (String.concat " " int_algos)
             int_bytes (String.concat " " str_algos) str_bytes)
  | _ -> None

(* Every op at p in {4, 8, 13, 16, 32} and totals 1, 4, ..., 65536 ints
   on both networks, and the payload rule in the same cells.  The byte
   thresholds this replaced were slower than the fastest algorithm in 40
   (omnipath) and 46 (ethernet) of these 180 cells each, by up to 3.68x
   (reduce_scatter, p = 32, 256 ints). *)
let test_selection_sweep () =
  let failures =
    List.concat_map
      (fun model ->
        List.concat_map
          (fun op ->
            List.concat_map
              (fun p ->
                List.concat_map
                  (fun e ->
                    let total = 1 lsl (2 * e) in
                    List.filter_map Fun.id
                      [
                        selection_cell model op ~p ~total;
                        payload_rule_cell model op ~p ~total;
                      ])
                  (List.init 9 Fun.id))
              [ 4; 8; 13; 16; 32 ])
          all_ops)
      [ Net_model.omnipath; Net_model.ethernet ]
  in
  Alcotest.(check (list string)) "cells where auto loses" [] failures

(* The same bound for a random op, p <= 32, total below 65536 ints and
   network, under the heavy sanitizer: every rank selects alike. *)
let prop_selection_is_argmin =
  QCheck.Test.make ~name:"auto within 2% of the fastest pinned algorithm" ~count:20
    QCheck.(quad (int_bound 3) (Arb.ranks 2 32) (int_bound 15) (int_bound 1_000_000))
    (fun (o, p, e, seed) ->
      let model = if seed mod 2 = 0 then Net_model.omnipath else Net_model.ethernet in
      let total = (1 lsl e) + (seed mod (1 lsl e)) in
      match
        selection_cell ~check_level:Check.Heavy model (List.nth all_ops o) ~p ~total
      with
      | None -> true
      | Some cell -> QCheck.Test.fail_report cell)

(* Selection runs on every collective call, so it allocates nothing: the
   costs are local floats, the bcast scatter's loop included. *)
let test_choose_allocation_free () =
  let ops = Array.of_list all_ops in
  let choose_all () =
    for size = 1 to 32 do
      for i = 0 to 3 do
        let bytes = size * 4096 in
        let model = if size land 1 = 0 then Net_model.omnipath else Net_model.ethernet in
        let commutative = size land 2 = 0 in
        ignore (Coll_algo.choose model ops.(i) ~bytes ~size ~commutative)
      done
    done
  in
  choose_all ();
  let words =
    Alloc.minor_words (fun () ->
        for _ = 1 to 100 do
          choose_all ()
        done)
    /. 100.
  in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per 128 choices" words) true
    (words < 1.)

(* --- Rings that forward: results and modelled time --- *)

(* Ring allgather (pinned), allgatherv, bcast's scatter + ring (pinned)
   and its binomial tree (pinned, of [int] and of a framed type) on the
   blocking, posted and persistent drivers, at ragged and power-of-two
   sizes, under the heavy sanitizer with and without a lossy chaos
   profile.  A ring round sends on the message it received the round
   before, and a tree node sends copies of the bytes it received, so
   every result must still equal the sequential reference, and every
   makespan must equal the one the simulator modelled when each step
   packed its block again (pinned bit for bit below): forwarding changes
   the host's work, not the model's. *)

(* A bcast form's algorithm and payload: the scatter + ring of [int]s,
   or the binomial tree of [int]s or of [Datatype.bytes] frames. *)
type bcast_pin = Scatter_ring | Tree_int | Tree_framed

type ring_form =
  | Allgather_ring
  | Allgatherv
  | Bcast of bcast_pin
  | Ibcast of bcast_pin
  | Bcast_init of bcast_pin

let ring_forms =
  let bcasts pin = [ Bcast pin; Ibcast pin; Bcast_init pin ] in
  let bcast_forms = List.concat_map bcasts [ Scatter_ring; Tree_int; Tree_framed ] in
  Allgather_ring :: Allgatherv :: bcast_forms

let bcast_pin_name = function
  | Scatter_ring -> ""
  | Tree_int -> " binomial int"
  | Tree_framed -> " binomial framed"

let bcast_pin_algo = function
  | Scatter_ring -> Coll_algo.Scatter_allgather
  | Tree_int | Tree_framed -> Coll_algo.Binomial

let ring_form_name = function
  | Allgather_ring -> "allgather"
  | Allgatherv -> "allgatherv"
  | Bcast pin -> "bcast" ^ bcast_pin_name pin
  | Ibcast pin -> "ibcast" ^ bcast_pin_name pin
  | Bcast_init pin -> "bcast_init" ^ bcast_pin_name pin

let ring_sizes = [ 2; 3; 5; 8; 16 ]

let ring_block ~rank ~len = Array.init len (fun i -> (rank * 1000) + i)

(* Ragged allgatherv counts, empty blocks included. *)
let ring_count rank = rank * 7 mod 5 * 9

(* Bcast payloads: fewer elements than ranks (empty blocks), then many. *)
let ring_bcast_lens = [ 5; 203 ]

let ring_root p = p / 2

(* The bcasts of one form's driver of [ring_bcast_lens] elements of
   [dt], made from the root's [ring_block] ints by [enc] and read back by
   [dec]: each rank's results. *)
let ring_bcasts form dt ~enc ~dec ~zero comm =
  let p = Comm.size comm and r = Comm.rank comm in
  let root = ring_root p in
  let payload len = Array.map enc (ring_block ~rank:root ~len) in
  let data len = if r = root then Some (payload len) else None in
  let run len =
    match form with
    | Ibcast _ ->
        let req, cell = Coll.ibcast comm dt ~root (data len) in
        ignore (Request.wait req);
        Option.get !cell
    | Bcast_init _ ->
        let buf = if r = root then payload len else Array.make len zero in
        let req = Coll.bcast_init comm dt ~root buf in
        Request.start req;
        ignore (Request.wait req);
        Request.free req;
        buf
    | _ -> Coll.bcast comm dt ~root (data len)
  in
  List.map (fun len -> Array.map dec (run len)) ring_bcast_lens

(* A [Datatype.bytes] frame per int: its decimal digits. *)
let frame_of_int i = Bytes.of_string (string_of_int i)

let int_of_frame b = int_of_string (Bytes.to_string b)

(* Each rank's results, one array per call. *)
let ring_body form comm =
  let p = Comm.size comm and r = Comm.rank comm in
  match form with
  | Allgather_ring -> [ Coll.allgather comm Datatype.int (ring_block ~rank:r ~len:13) ]
  | Allgatherv ->
      let recv_counts = Array.init p ring_count in
      [
        Coll.allgatherv comm Datatype.int ~recv_counts
          (ring_block ~rank:r ~len:(ring_count r));
      ]
  | Bcast Tree_framed | Ibcast Tree_framed | Bcast_init Tree_framed ->
      ring_bcasts form Datatype.bytes ~enc:frame_of_int ~dec:int_of_frame ~zero:Bytes.empty
        comm
  | Bcast _ | Ibcast _ | Bcast_init _ ->
      ring_bcasts form Datatype.int ~enc:Fun.id ~dec:Fun.id ~zero:0 comm

let ring_expected form p =
  match form with
  | Allgather_ring -> [ Array.concat (List.init p (fun r -> ring_block ~rank:r ~len:13)) ]
  | Allgatherv ->
      [ Array.concat (List.init p (fun r -> ring_block ~rank:r ~len:(ring_count r))) ]
  | Bcast _ | Ibcast _ | Bcast_init _ ->
      List.map (fun len -> ring_block ~rank:(ring_root p) ~len) ring_bcast_lens

let ring_chaos = Chaos.config ~seed:23 ~rates:Chaos.Lossy ()

let ring_run form ~p ~chaos =
  let bcast_algo =
    match form with
    | Bcast pin | Ibcast pin | Bcast_init pin -> bcast_pin_algo pin
    | Allgather_ring | Allgatherv -> Coll_algo.Scatter_allgather
  in
  let results, report =
    Engine.run_collect
      ~model:
        (Coll_algo.pin
           [
             (Coll_algo.Allgather, Some Coll_algo.Ring);
             (Coll_algo.Bcast, Some bcast_algo);
           ]
           Net_model.ethernet)
      ~clock_mode:Runtime.Virtual_only ~check_level:Check.Heavy
      ?chaos:(if chaos then Some ring_chaos else None)
      ~ranks:p (ring_body form)
  in
  (results, report.Engine.max_time)

(* (form, p, chaos) -> makespan, as modelled when each ring round
   packed its block again and an [int] tree packed its payload once per
   child. *)
let ring_makespans =
  [
    ((Allgather_ring, 2, false), 0x1.e81c0f7e6ddc4p-16);
    ((Allgather_ring, 3, false), 0x1.e81c0f7e6ddc3p-15);
    ((Allgather_ring, 5, false), 0x1.e81c0f7e6ddc2p-14);
    ((Allgather_ring, 8, false), 0x1.ab188d8ea020cp-13);
    ((Allgather_ring, 16, false), 0x1.c99a4e8686fe6p-12);
    ((Allgatherv, 2, false), 0x1.e8c7dbf57f60ap-16);
    ((Allgatherv, 3, false), 0x1.eaf0312780a7ap-15);
    ((Allgatherv, 5, false), 0x1.eaee0b6603a2dp-14);
    ((Allgatherv, 8, false), 0x1.ad8f7bd0b44ccp-13);
    ((Allgatherv, 16, false), 0x1.cc3db0ba9d753p-12);
    ((Bcast Scatter_ring, 2, false), 0x1.ecc2a01df92c6p-14);
    ((Bcast Scatter_ring, 3, false), 0x1.796f053010753p-13);
    ((Bcast Scatter_ring, 5, false), 0x1.5740c6a92322bp-12);
    ((Bcast Scatter_ring, 8, false), 0x1.152338fb5a653p-11);
    ((Bcast Scatter_ring, 16, false), 0x1.0c5ea5554e36p-10);
    ((Ibcast Scatter_ring, 2, false), 0x1.ecc2a01df92c6p-14);
    ((Ibcast Scatter_ring, 3, false), 0x1.796f053010753p-13);
    ((Ibcast Scatter_ring, 5, false), 0x1.5740c6a92322bp-12);
    ((Ibcast Scatter_ring, 8, false), 0x1.152338fb5a653p-11);
    ((Ibcast Scatter_ring, 16, false), 0x1.0c5ea5554e36p-10);
    ((Bcast_init Scatter_ring, 2, false), 0x1.ecc2a01df92c6p-14);
    ((Bcast_init Scatter_ring, 3, false), 0x1.796f053010753p-13);
    ((Bcast_init Scatter_ring, 5, false), 0x1.5740c6a92322bp-12);
    ((Bcast_init Scatter_ring, 8, false), 0x1.152338fb5a653p-11);
    ((Bcast_init Scatter_ring, 16, false), 0x1.0c5ea5554e36p-10);
    ((Allgather_ring, 2, true), 0x1.6dda3fe0a95fdp-15);
    ((Allgather_ring, 3, true), 0x1.8beb5f8960ecfp-13);
    ((Allgather_ring, 5, true), 0x1.2443d2c43ce97p-12);
    ((Allgather_ring, 8, true), 0x1.a80fbd3225057p-12);
    ((Allgather_ring, 16, true), 0x1.a4b0300afdac4p-11);
    ((Allgatherv, 2, true), 0x1.6e30261c32221p-15);
    ((Allgatherv, 3, true), 0x1.8c153fc666cbap-13);
    ((Allgatherv, 5, true), 0x1.246d2990e386ep-12);
    ((Allgatherv, 8, true), 0x1.a8d1712b9821ap-12);
    ((Allgatherv, 16, true), 0x1.a470d63f159cfp-11);
    ((Bcast Scatter_ring, 2, true), 0x1.e9cef7a9c3d07p-13);
    ((Bcast Scatter_ring, 3, true), 0x1.2ffde790a1bbfp-12);
    ((Bcast Scatter_ring, 5, true), 0x1.2b0e06c7390d4p-11);
    ((Bcast Scatter_ring, 8, true), 0x1.0b1826d87568ep-10);
    ((Bcast Scatter_ring, 16, true), 0x1.d298cc424f924p-10);
    ((Ibcast Scatter_ring, 2, true), 0x1.e9cef7a9c3d07p-13);
    ((Ibcast Scatter_ring, 3, true), 0x1.2ffde790a1bbfp-12);
    ((Ibcast Scatter_ring, 5, true), 0x1.2b0e06c7390d4p-11);
    ((Ibcast Scatter_ring, 8, true), 0x1.0b1826d87568ep-10);
    ((Ibcast Scatter_ring, 16, true), 0x1.d298cc424f924p-10);
    ((Bcast_init Scatter_ring, 2, true), 0x1.e9cef7a9c3d07p-13);
    ((Bcast_init Scatter_ring, 3, true), 0x1.2ffde790a1bbfp-12);
    ((Bcast_init Scatter_ring, 5, true), 0x1.2b0e06c7390d4p-11);
    ((Bcast_init Scatter_ring, 8, true), 0x1.0b1826d87568ep-10);
    ((Bcast_init Scatter_ring, 16, true), 0x1.d298cc424f924p-10);
    ((Bcast Tree_int, 2, false), 0x1.1097c50699721p-15);
    ((Bcast Tree_int, 3, false), 0x1.3e031ae78cec9p-15);
    ((Bcast Tree_int, 5, false), 0x1.274d6ff7132f5p-14);
    ((Bcast Tree_int, 8, false), 0x1.98e3a789e62b1p-14);
    ((Bcast Tree_int, 16, false), 0x1.1097c5069972p-13);
    ((Ibcast Tree_int, 2, false), 0x1.1097c50699721p-15);
    ((Ibcast Tree_int, 3, false), 0x1.3e031ae78cec9p-15);
    ((Ibcast Tree_int, 5, false), 0x1.274d6ff7132f5p-14);
    ((Ibcast Tree_int, 8, false), 0x1.98e3a789e62b1p-14);
    ((Ibcast Tree_int, 16, false), 0x1.1097c5069972p-13);
    ((Bcast_init Tree_int, 2, false), 0x1.1097c50699721p-15);
    ((Bcast_init Tree_int, 3, false), 0x1.3e031ae78cec9p-15);
    ((Bcast_init Tree_int, 5, false), 0x1.274d6ff7132f5p-14);
    ((Bcast_init Tree_int, 8, false), 0x1.98e3a789e62b1p-14);
    ((Bcast_init Tree_int, 16, false), 0x1.1097c5069972p-13);
    ((Bcast Tree_framed, 2, false), 0x1.16dda86c643a2p-15);
    ((Bcast Tree_framed, 3, false), 0x1.4a37b19d1b845p-15);
    ((Bcast Tree_framed, 5, false), 0x1.308aad04bfdf2p-14);
    ((Bcast Tree_framed, 8, false), 0x1.a24c7ca29657p-14);
    ((Bcast Tree_framed, 16, false), 0x1.16dda86c643ap-13);
    ((Ibcast Tree_framed, 2, false), 0x1.16dda86c643a2p-15);
    ((Ibcast Tree_framed, 3, false), 0x1.4a37b19d1b845p-15);
    ((Ibcast Tree_framed, 5, false), 0x1.308aad04bfdf2p-14);
    ((Ibcast Tree_framed, 8, false), 0x1.a24c7ca29657p-14);
    ((Ibcast Tree_framed, 16, false), 0x1.16dda86c643ap-13);
    ((Bcast_init Tree_framed, 2, false), 0x1.16dda86c643a2p-15);
    ((Bcast_init Tree_framed, 3, false), 0x1.4a37b19d1b845p-15);
    ((Bcast_init Tree_framed, 5, false), 0x1.308aad04bfdf2p-14);
    ((Bcast_init Tree_framed, 8, false), 0x1.a24c7ca29657p-14);
    ((Bcast_init Tree_framed, 16, false), 0x1.16dda86c643ap-13);
    ((Bcast Tree_int, 2, true), 0x1.8a63fd280be3dp-15);
    ((Bcast Tree_int, 3, true), 0x1.bd7ede89a5ec3p-15);
    ((Bcast Tree_int, 5, true), 0x1.b2b7fab2874e1p-13);
    ((Bcast Tree_int, 8, true), 0x1.b2b7fab2874e1p-13);
    ((Bcast Tree_int, 16, true), 0x1.232aa919f7807p-12);
    ((Ibcast Tree_int, 2, true), 0x1.8a63fd280be3dp-15);
    ((Ibcast Tree_int, 3, true), 0x1.bd7ede89a5ec3p-15);
    ((Ibcast Tree_int, 5, true), 0x1.b2b7fab2874e1p-13);
    ((Ibcast Tree_int, 8, true), 0x1.b2b7fab2874e1p-13);
    ((Ibcast Tree_int, 16, true), 0x1.232aa919f7807p-12);
    ((Bcast_init Tree_int, 2, true), 0x1.8a63fd280be3dp-15);
    ((Bcast_init Tree_int, 3, true), 0x1.bd7ede89a5ec3p-15);
    ((Bcast_init Tree_int, 5, true), 0x1.b2b7fab2874e1p-13);
    ((Bcast_init Tree_int, 8, true), 0x1.b2b7fab2874e1p-13);
    ((Bcast_init Tree_int, 16, true), 0x1.232aa919f7807p-12);
    ((Bcast Tree_framed, 2, true), 0x1.90a9e08dd6abep-15);
    ((Bcast Tree_framed, 3, true), 0x1.c9b3753f3483ep-15);
    ((Bcast Tree_framed, 5, true), 0x1.b75699395da62p-13);
    ((Bcast Tree_framed, 8, true), 0x1.b75699395da62p-13);
    ((Bcast Tree_framed, 16, true), 0x1.264d9accdce4bp-12);
    ((Ibcast Tree_framed, 2, true), 0x1.90a9e08dd6abep-15);
    ((Ibcast Tree_framed, 3, true), 0x1.c9b3753f3483ep-15);
    ((Ibcast Tree_framed, 5, true), 0x1.b75699395da62p-13);
    ((Ibcast Tree_framed, 8, true), 0x1.b75699395da62p-13);
    ((Ibcast Tree_framed, 16, true), 0x1.264d9accdce4bp-12);
    ((Bcast_init Tree_framed, 2, true), 0x1.90a9e08dd6abep-15);
    ((Bcast_init Tree_framed, 3, true), 0x1.c9b3753f3483ep-15);
    ((Bcast_init Tree_framed, 5, true), 0x1.b75699395da62p-13);
    ((Bcast_init Tree_framed, 8, true), 0x1.b75699395da62p-13);
    ((Bcast_init Tree_framed, 16, true), 0x1.264d9accdce4bp-12);
  ]

let test_ring_forwarding () =
  List.iter
    (fun chaos ->
      List.iter
        (fun form ->
          List.iter
            (fun p ->
              let name =
                Printf.sprintf "%s p=%d%s" (ring_form_name form) p
                  (if chaos then " chaos" else "")
              in
              let results, makespan = ring_run form ~p ~chaos in
              let expected = ring_expected form p in
              Array.iteri
                (fun r got ->
                  match got with
                  | Some got when got = expected -> ()
                  | Some _ -> Alcotest.failf "%s: rank %d result differs" name r
                  | None -> Alcotest.failf "%s: rank %d died" name r)
                results;
              match List.assoc_opt (form, p, chaos) ring_makespans with
              | Some pinned when Int64.bits_of_float pinned = Int64.bits_of_float makespan
                ->
                  ()
              | pinned ->
                  Alcotest.failf "%s: makespan %h, pinned %s" name makespan
                    (match pinned with Some t -> Printf.sprintf "%h" t | None -> "none"))
            ring_sizes)
        ring_forms)
    [ false; true ]

(* --- Results written once --- *)

(* An element type the ring collectives carry: rank [r]'s element [i] is
   [make ~rank:r i], [same] compares two elements (floats bit for bit),
   and the own block of a [boxed] type must stay the caller's elements,
   not copies decoded from the wire. *)
type 'a elem = {
  name : string;
  dt : 'a Datatype.t;
  make : rank:int -> int -> 'a;
  same : 'a -> 'a -> bool;
  boxed : bool;
}

type once_ty = Ty : 'a elem -> once_ty

type point = { px : int; py : float }

let point_dt =
  let dt =
    Datatype.record "point"
      Datatype.[ field "px" int (fun p -> p.px); field "py" float (fun p -> p.py) ]
      (fun px py -> { px; py })
  in
  Datatype.commit dt;
  dt

let triple_dt =
  let dt = Datatype.contiguous ~count:3 Datatype.int in
  Datatype.commit dt;
  dt

let once_hash ~rank i = Xoshiro.hash_int ~seed:4409 ~stream:rank ~counter:i ~bound:1_000_000

(* Floats with the specials in: NaN payloads, infinities, -0. and
   subnormals, compared by their bits. *)
let once_float ~rank i =
  match once_hash ~rank i mod 7 with
  | 0 -> Int64.float_of_bits (Int64.logor 0x7ff0000000000001L (Int64.of_int i))
  | 1 -> Float.neg_infinity
  | 2 -> -0.
  | 3 -> Float.of_int (i + 1) *. 4.9e-324
  | _ -> Float.of_int (once_hash ~rank i) /. 7.

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let once_types =
  [
    Ty
      {
        name = "int";
        dt = Datatype.int;
        make = (fun ~rank i -> (once_hash ~rank i * 1_000_003) - (rank lsl 40));
        same = Int.equal;
        boxed = false;
      };
    Ty
      {
        name = "byte";
        dt = Datatype.byte;
        make = (fun ~rank i -> Char.chr (once_hash ~rank i land 255));
        same = Char.equal;
        boxed = false;
      };
    Ty { name = "float"; dt = Datatype.float; make = once_float; same = same_bits; boxed = false };
    Ty
      {
        name = "record";
        dt = point_dt;
        make = (fun ~rank i -> { px = once_hash ~rank i; py = once_float ~rank i });
        same = (fun a b -> a.px = b.px && same_bits a.py b.py);
        boxed = true;
      };
    Ty
      {
        name = "contiguous";
        dt = triple_dt;
        make = (fun ~rank i -> [| rank; i; once_hash ~rank i |]);
        same = ( = );
        boxed = true;
      };
    Ty
      {
        name = "serialized";
        dt = Kamping.Serialized.datatype Serial.Codec.string;
        make = (fun ~rank i -> String.make (once_hash ~rank i mod 5) (Char.chr (65 + (i mod 26))));
        same = String.equal;
        boxed = true;
      };
  ]

(* Block counts per rank: all empty (a zero total), or a mix of empty
   blocks and blocks on both sides of [Max_young_wosize] (256 words). *)
let once_counts ~p ~mixed =
  if not mixed then Array.make p 0
  else Array.init p (fun b -> [| 0; 1; 255; 256; 257; 0; 40; 300 |].(((b * 5) + p) mod 8))

(* What MPI says a rank's result is: a buffer seeded with the type's
   placeholder, its own block ([me], or none) copied in and every other
   block read into place from its packed bytes. *)
let once_reference e (blocks : 'a array array) ~me =
  let total = Array.fold_left (fun n b -> n + Array.length b) 0 blocks in
  if total = 0 then [||]
  else begin
    let out = Array.make total (Datatype.zero_elem e.dt) in
    let pos = ref 0 in
    Array.iteri
      (fun b block ->
        let count = Array.length block in
        if b = me then Array.blit block 0 out !pos count
        else begin
          let w = Wire.create_writer () in
          Datatype.pack_array e.dt w block ~pos:0 ~count;
          Datatype.unpack_slice_into e.dt (Wire.writer_storage w) ~off:0 ~len:(Wire.length w)
            out ~pos:!pos ~count
        end;
        pos := !pos + count)
      blocks;
    out
  end

type once_form =
  | Once_allgatherv
  | Once_allgather
  | Once_bruck
  | Once_bcast
  | Once_ibcast
  | Once_bcast_init

let once_forms =
  [ Once_allgatherv; Once_allgather; Once_bruck; Once_bcast; Once_ibcast; Once_bcast_init ]

let once_form_name = function
  | Once_allgatherv -> "allgatherv"
  | Once_allgather -> "allgather (ring)"
  | Once_bruck -> "allgather (Bruck)"
  | Once_bcast -> "bcast (scatter+ring)"
  | Once_ibcast -> "ibcast (scatter+ring)"
  | Once_bcast_init -> "bcast_init (scatter+ring)"

let once_model =
  Coll_algo.pin
    [
      (Coll_algo.Allgather, Some Coll_algo.Ring); (Coll_algo.Bcast, Some Coll_algo.Scatter_allgather);
    ]
    Net_model.omnipath

(* The Bruck allgather receives a run that wraps past the last block in
   two pieces, each read straight into its place. *)
let bruck_model = Coll_algo.pin [ (Coll_algo.Allgather, Some Coll_algo.Bruck) ] Net_model.omnipath

let once_model_of = function Once_bruck -> bruck_model | _ -> once_model

let once_block e ~rank ~len = Array.init len (e.make ~rank)

(* The blocks of every rank's result, in order; a bcast's is the root's
   payload alone. *)
let once_blocks e form ~p ~(counts : int array) =
  match form with
  | Once_allgatherv | Once_allgather | Once_bruck ->
      Array.init p (fun b -> once_block e ~rank:b ~len:counts.(b))
  | Once_bcast | Once_ibcast | Once_bcast_init ->
      [| once_block e ~rank:(p / 2) ~len:(Array.fold_left ( + ) 0 counts) |]

(* One call of [form] on this rank: its result, and the block it
   contributed (an empty one for a bcast, whose blocks all come from the
   root). *)
let once_call e form comm ~(counts : int array) =
  let p = Comm.size comm and r = Comm.rank comm in
  let root = p / 2 in
  let total = Array.fold_left ( + ) 0 counts in
  let payload () = once_block e ~rank:root ~len:total in
  match form with
  | Once_allgatherv ->
      let data = once_block e ~rank:r ~len:counts.(r) in
      (Coll.allgatherv comm e.dt ~recv_counts:counts data, data)
  | Once_allgather | Once_bruck ->
      let data = once_block e ~rank:r ~len:counts.(r) in
      (Coll.allgather comm e.dt data, data)
  | Once_bcast -> (Coll.bcast comm e.dt ~root (if r = root then Some (payload ()) else None), [||])
  | Once_ibcast ->
      let req, cell = Coll.ibcast comm e.dt ~root (if r = root then Some (payload ()) else None) in
      ignore (Request.wait req);
      (Option.get !cell, [||])
  | Once_bcast_init ->
      let buf = if r = root then payload () else Array.make total (Datatype.zero_elem e.dt) in
      let req = Coll.bcast_init comm e.dt ~root buf in
      Request.start req;
      ignore (Request.wait req);
      Request.free req;
      (buf, [||])

(* One rank's result against the reference: the same elements, and for
   a boxed type, its own block the caller's very elements. *)
let once_check e ~what ~me ~blocks ~own got =
  let expected = once_reference e blocks ~me in
  if Array.length got <> Array.length expected then
    Alcotest.failf "%s: rank %d: %d elements, reference %d" what me (Array.length got)
      (Array.length expected);
  Array.iteri
    (fun i x ->
      if not (e.same got.(i) x) then Alcotest.failf "%s: rank %d: element %d differs" what me i)
    expected;
  if e.boxed && me >= 0 then begin
    let pos = ref 0 in
    for b = 0 to me - 1 do
      pos := !pos + Array.length blocks.(b)
    done;
    Array.iteri
      (fun i x ->
        if got.(!pos + i) != x then Alcotest.failf "%s: rank %d: own element %d is a copy" what me i)
      own
  end

(* Run [form] over [e] at [p] ranks with each count layout, [calls]
   calls per run and [between] after each, and check every result of
   every rank of every run [runs] makes of the simulation. *)
let once_case ?(between = ignore) ?(calls = 1) ?(runs = fun f -> [ f () ]) e form ~p =
  List.iter
    (fun mixed ->
      let counts = once_counts ~p ~mixed in
      let counts =
        match form with
        | Once_allgather | Once_bruck -> Array.make p (Array.fold_left Int.max 0 counts)
        | _ -> counts
      in
      let what =
        Printf.sprintf "%s %s p=%d %s" (once_form_name form) e.name p
          (if mixed then "mixed" else "empty")
      in
      let runs =
        runs (fun () ->
            fst
              (Engine.run_collect ~model:(once_model_of form) ~clock_mode:Runtime.Virtual_only
                 ~ranks:p
                 (fun comm ->
                   List.init calls (fun _ ->
                       let r = once_call e form comm ~counts in
                       between ();
                       r))))
      in
      let blocks = once_blocks e form ~p ~counts in
      let bcast =
        match form with Once_allgatherv | Once_allgather | Once_bruck -> false | _ -> true
      in
      List.iter
        (Array.iteri (fun me res ->
             match res with
             | None -> Alcotest.failf "%s: rank %d died" what me
             | Some results ->
                 List.iter
                   (fun (got, own) ->
                     once_check e ~what ~me:(if bcast then -1 else me) ~blocks ~own got)
                   results))
        runs)
    [ false; true ]

let test_write_once_reference () =
  List.iter
    (fun (Ty e) ->
      List.iter
        (fun form -> List.iter (fun p -> once_case e form ~p) [ 1; 2; 3; 5; 8; 16 ])
        once_forms)
    once_types

(* The same under collection pressure: a 4,096-word minor heap, and a
   full major collection or a compaction after every call, so results
   built on either heap are moved and scanned between calls. *)
let test_write_once_gc_stress () =
  let saved = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.minor_heap_size = 4096 };
      let n = ref 0 in
      let between () =
        incr n;
        if !n mod 2 = 0 then Gc.compact () else Gc.full_major ()
      in
      List.iter
        (fun (Ty e) ->
          List.iter (fun form -> once_case ~between ~calls:3 e form ~p:5) once_forms)
        once_types)

(* Two independent runs pooled on 2 domains, each result checked. *)
let test_write_once_pooled () =
  let runs f = Engine.run_many [ f; f ] in
  List.iter
    (fun (Ty e) -> List.iter (fun form -> once_case ~runs e form ~p:8) once_forms)
    once_types

(* --- The last reader recycles --- *)

(* Rank [rank]'s element [i] in iteration [it]: new data every call. *)
let lag_value ~it ~rank i = (it * 1_000_000) + (rank * 10_000) + i

(* A ring reads every block at its end, after passing it on, so a
   block's storage must outlive its slowest reader.  Back-to-back ring
   allgathervs, all-to-alls and reductions with new data each
   iteration, under the heavy sanitizer, every result checked: storage
   handed back by the block's last receiver as soon as that rank is done
   with it is packed over by its next call while a ring member that
   lags has still to read it, and a result here goes wrong. *)
let test_lagging_readers () =
  List.iter
    (fun p ->
      let results, _ =
        Engine.run_collect ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only
          ~check_level:Check.Heavy ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let wrong = ref [] in
            let check what it got want = if got <> want then wrong := (what, it) :: !wrong in
            for it = 1 to 25 do
              let counts = Array.init p (fun b -> ((b * 7) + it) mod 11 * 3) in
              check "allgatherv" it
                (Coll.allgatherv comm Datatype.int ~recv_counts:counts
                   (Array.init counts.(r) (lag_value ~it ~rank:r)))
                (Array.concat
                   (List.init p (fun b -> Array.init counts.(b) (lag_value ~it ~rank:b))));
              check "alltoall" it
                (Coll.alltoall comm Datatype.int (Array.init (2 * p) (lag_value ~it:(-it) ~rank:r)))
                (Array.init (2 * p) (fun i ->
                     lag_value ~it:(-it) ~rank:(i / 2) ((r * 2) + (i mod 2))));
              check "allreduce" it
                (Coll.allreduce comm Datatype.int Reduce_op.int_sum
                   (Array.init 64 (lag_value ~it ~rank:r)))
                (Array.init 64 (fun i ->
                     List.fold_left ( + ) 0 (List.init p (fun b -> lag_value ~it ~rank:b i))))
            done;
            List.rev !wrong)
      in
      Array.iteri
        (fun r res ->
          match res with
          | Some [] -> ()
          | Some ((what, it) :: _) ->
              Alcotest.failf "p=%d rank %d: %s wrong in iteration %d" p r what it
          | None -> Alcotest.failf "p=%d rank %d died" p r)
        results)
    [ 3; 5; 8 ]

(* Every rank's pool hits and misses over 200 allgatherv calls, after
   20 calls that fill the pools: whichever member reads a block last
   returns its storage to the pool of the rank that packed it, so each
   pool gets its one buffer back per call and serves the next call's
   pack from it.  For these layouts that is 200 hits and no miss per
   rank, as when each block's last receiver recycled it at once. *)
let test_ring_pool_counts () =
  List.iter
    (fun (p, counts) ->
      let counts_of = Array.of_list counts in
      let reading = Array.make p (0, 0) in
      ignore
        (Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only ~ranks:p
           (fun comm ->
             let r = Comm.rank comm in
             let pool = (Comm.runtime comm).Runtime.wire_pools.(Comm.world_rank comm) in
             let call it =
               ignore
                 (Coll.allgatherv comm Datatype.int ~recv_counts:counts_of
                    (Array.init counts_of.(r) (lag_value ~it ~rank:r)))
             in
             for it = 1 to 20 do
               call it
             done;
             let h0, m0, _ = Wire.pool_stats pool in
             for it = 21 to 220 do
               call it
             done;
             let h, m, _ = Wire.pool_stats pool in
             reading.(r) <- (h - h0, m - m0)));
      Array.iteri
        (fun r (hits, misses) ->
          if (hits, misses) <> (200, 0) then
            Alcotest.failf "p=%d rank %d: %d hits, %d misses in 200 calls" p r hits misses)
        reading)
    [
      (3, [ 16; 16; 16 ]);
      (8, [ 0; 3; 6; 2; 5; 1; 4; 0 ]);
      (16, List.init 16 (fun b -> 16 + (b * 67)));
    ]

(* A framed ring member packs its block once: the bytes the profile row
   records are the ones its round 0 sends, so a counting codec sees one
   encode per rank and call, and the row reads what each rank's block
   packs to. *)
let test_framed_ring_packs_once () =
  let value r = String.make (10 + r) (Char.chr (97 + r)) in
  let packed_len r =
    let w = Wire.create_writer () in
    Datatype.pack_array (Kamping.Serialized.datatype Serial.Codec.string) w [| value r |] ~pos:0
      ~count:1;
    Wire.length w
  in
  List.iter
    (fun p ->
      let encodes = ref 0 in
      let codec =
        Serial.Codec.map ~name:"counted" ~inject:Fun.id
          ~project:(fun s ->
            incr encodes;
            s)
          Serial.Codec.string
      in
      let dt = Kamping.Serialized.datatype codec in
      List.iter
        (fun (op, call) ->
          encodes := 0;
          let results, report =
            Engine.run_collect ~model:once_model ~clock_mode:Runtime.Virtual_only ~ranks:p
              (fun comm -> call comm dt (value (Comm.rank comm)))
          in
          Array.iter
            (fun res ->
              if res <> Some (Array.init p value) then Alcotest.failf "%s p=%d: wrong result" op p)
            results;
          if !encodes <> p then
            Alcotest.failf "%s p=%d: %d encodes, one per rank expected" op p !encodes;
          let bytes = List.fold_left ( + ) 0 (List.init p packed_len) in
          Alcotest.(check (triple string int int))
            (Printf.sprintf "%s p=%d profile row" op p)
            (op, p, bytes)
            (List.find (fun (o, _, _) -> o = op) report.Engine.profile))
        [
          ( "allgatherv",
            fun comm dt v -> Coll.allgatherv comm dt ~recv_counts:(Array.make p 1) [| v |] );
          ("allgather", fun comm dt v -> Coll.allgather comm dt [| v |]);
        ])
    [ 4; 8; 16 ]

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
    Alcotest.test_case "alltoallv bad send_displs" `Quick test_alltoallv_bad_send_displs;
    Alcotest.test_case "gatherv empty-then-nonempty" `Quick
      test_gatherv_empty_then_nonempty;
    Alcotest.test_case "allgatherv byte volume" `Quick test_allgatherv_byte_volume;
    qtest prop_allreduce_algorithms;
    qtest prop_allgather_algorithms;
    qtest prop_bcast_algorithms;
    qtest prop_reduce_scatter_algorithms;
    Alcotest.test_case "pins are per-run under run_many" `Quick test_pins_per_run;
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
    qtest prop_any_wait_order;
    Alcotest.test_case "one list: persistent, i-collective, irecv" `Quick
      test_mixed_request_list;
    Alcotest.test_case "deadlock names a schedule's wait" `Quick
      test_deadlock_names_schedule_wait;
    Alcotest.test_case "one tag table" `Quick test_tag_table;
    Alcotest.test_case "comm matrix: single-algorithm labels" `Quick
      test_comm_matrix_single_algorithm_labels;
    Alcotest.test_case "comm matrix: pof2 preamble label" `Quick
      test_comm_matrix_pof2_preamble_label;
    Alcotest.test_case "comm matrix: split label" `Quick test_comm_matrix_split_label;
    Alcotest.test_case "comm matrix: lowered phase labels" `Quick
      test_comm_matrix_lowered_phase_labels;
    Alcotest.test_case "deadlock names a blocking collective" `Quick
      test_deadlock_names_blocking_collective;
    Alcotest.test_case "scan count mismatch is ERR_COUNT" `Quick test_scan_count_mismatch;
    Alcotest.test_case "selection sweep: auto is the fastest" `Quick test_selection_sweep;
    Alcotest.test_case "selection allocates nothing" `Quick test_choose_allocation_free;
    qtest prop_selection_is_argmin;
    Alcotest.test_case "write-once results = Array.make reference" `Quick
      test_write_once_reference;
    Alcotest.test_case "write-once results under GC stress" `Quick
      test_write_once_gc_stress;
    Alcotest.test_case "write-once results in pooled runs" `Quick test_write_once_pooled;
    Alcotest.test_case "lagging ring readers read their own data" `Quick test_lagging_readers;
    Alcotest.test_case "ring pools: hits and misses per call" `Quick test_ring_pool_counts;
    Alcotest.test_case "a framed ring packs once" `Quick test_framed_ring_packs_once;
    Alcotest.test_case "forwarding rings: results and pinned makespans" `Quick
      test_ring_forwarding;
  ]

let () = Alcotest.run "coll" [ ("coll", tests) ]
