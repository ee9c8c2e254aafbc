(* Tests for the observability layer: the trace recorder (span nesting,
   ring-buffer eviction, disabled-mode cost), the stats registry
   (histogram bucketing), the symmetric profiling diff, the batched timer
   aggregation, and end-to-end traces of a real collective. *)

open Mpisim

let find_events tr rank p = List.filter p (Trace.events tr rank)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- recorder basics --- *)

let test_span_nesting () =
  let clocks = [| 0. |] in
  let tr = Trace.create ~clocks in
  Trace.enable tr;
  Trace.with_span tr ~rank:0 ~cat:"outer" ~name:"a" (fun () ->
      clocks.(0) <- 1.;
      Trace.with_span tr ~rank:0 ~cat:"inner" ~name:"b" (fun () -> clocks.(0) <- 2.));
  (match Trace.events tr 0 with
  | [ e1; e2; e3; e4 ] ->
      Alcotest.(check string) "outer begin" "a" e1.Trace_stream.name;
      Alcotest.(check bool) "outer begin kind" true (e1.Trace_stream.kind = Begin);
      Alcotest.(check string) "inner begin" "b" e2.Trace_stream.name;
      Alcotest.(check string) "inner end" "b" e3.Trace_stream.name;
      Alcotest.(check bool) "inner end kind" true (e3.Trace_stream.kind = End);
      Alcotest.(check string) "outer end" "a" e4.Trace_stream.name;
      Alcotest.(check bool) "timestamps ordered" true
        (e1.Trace_stream.ts <= e2.ts && e2.ts <= e3.ts
        && e3.ts <= e4.ts)
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs));
  (* Spans close even when the body raises. *)
  (try
     Trace.with_span tr ~rank:0 ~cat:"outer" ~name:"raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  let ends =
    find_events tr 0 (fun e -> e.Trace_stream.kind = End && e.name = "raise")
  in
  Alcotest.(check int) "span closed on exception" 1 (List.length ends)

let test_ring_eviction () =
  let clocks = [| 0. |] in
  let tr = Trace.create ~clocks in
  Trace.enable ~capacity:4 tr;
  for i = 1 to 10 do
    Trace.instant tr ~rank:0 ~cat:"t" ~name:"e" ~a:i ~b:(-1) ~c:(-1)
  done;
  Alcotest.(check int) "length capped at capacity" 4 (List.length (Trace.events tr 0));
  Alcotest.(check int) "dropped counts evictions" 6 (Trace.total_dropped tr);
  (* The survivors are the newest events, in order. *)
  let surviving = List.map (fun e -> e.Trace_stream.a) (Trace.events tr 0) in
  Alcotest.(check (list int)) "oldest evicted first" [ 7; 8; 9; 10 ] surviving

let test_disabled_mode_is_free () =
  let clocks = [| 0. |] in
  let tr = Trace.create ~clocks in
  Alcotest.(check bool) "created disabled" false (Trace.enabled tr);
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.span_begin tr ~rank:0 ~cat:"c" ~name:"n";
    Trace.instant tr ~rank:0 ~cat:"c" ~name:"i" ~a:i ~b:0 ~c:0;
    Trace.span_end tr ~rank:0 ~cat:"c" ~name:"n"
  done;
  let allocated = Gc.minor_words () -. w0 in
  (* Not exactly 0 because reading minor_words itself boxes a float, but
     far below one word per emitter call. *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free when disabled (%.0f words)" allocated)
    true (allocated < 100.);
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.events tr 0))

let test_chrome_export_parses_shape () =
  let clocks = [| 0.; 0. |] in
  let tr = Trace.create ~clocks in
  Trace.enable tr;
  Trace.with_span tr ~rank:0 ~cat:"coll" ~name:"bcast \"q\"" (fun () -> clocks.(0) <- 1e-3);
  Trace.instant tr ~rank:1 ~cat:"sim" ~name:"send" ~a:0 ~b:7 ~c:128;
  Trace.complete tr ~rank:1 ~cat:"sched" ~name:"segment" ~dur:1e-4;
  let json = Trace.to_chrome_json tr in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true
        (contains ~needle json))
    [
      "\"traceEvents\"";
      "\"ph\":\"B\"";
      "\"ph\":\"E\"";
      "\"ph\":\"i\"";
      "\"ph\":\"X\"";
      "thread_name";
      "\\\"q\\\"" (* the quote in the span name must be escaped *);
    ]

(* --- stats registry --- *)

let test_histogram_bucketing () =
  let s = Stats.create () in
  let h = Stats.histogram s "x" in
  List.iter (Stats.observe h) [ 0.; 1.; 1.5; 2.0; 3.0; 1024.; -5. ];
  Alcotest.(check int) "total" 7 (Stats.total h);
  Alcotest.(check (float 1e-9)) "min" (-5.) (Stats.min_value h);
  Alcotest.(check (float 1e-9)) "max" 1024. (Stats.max_value h);
  let find_bucket v =
    List.find_opt (fun (lo, hi, _) -> lo < v && v <= hi) (Stats.buckets h)
  in
  (* Power-of-two upper bounds are inclusive: 1.0 lands in (0.5, 1]. *)
  (match find_bucket 1.0 with
  | Some (_, hi, n) ->
      Alcotest.(check (float 1e-12)) "1.0 bucket bound" 1.0 hi;
      Alcotest.(check int) "1.0 alone in its bucket" 1 n
  | None -> Alcotest.fail "no bucket for 1.0");
  (* 1.5 and 2.0 share (1, 2]. *)
  (match find_bucket 1.5 with
  | Some (lo, hi, n) ->
      Alcotest.(check (float 1e-12)) "lo" 1.0 lo;
      Alcotest.(check (float 1e-12)) "hi" 2.0 hi;
      Alcotest.(check int) "two values in (1,2]" 2 n
  | None -> Alcotest.fail "no bucket for 1.5");
  (* Non-positive values collapse into the first bucket. *)
  let first_lo, _, first_n = List.hd (Stats.buckets h) in
  Alcotest.(check bool) "first bucket open below" true (first_lo = neg_infinity);
  Alcotest.(check int) "0 and -5 in first bucket" 2 first_n;
  Alcotest.(check (float 1e-9)) "mean"
    ((0. +. 1. +. 1.5 +. 2.0 +. 3.0 +. 1024. -. 5.) /. 7.)
    (Stats.mean h)

let test_histogram_extremes () =
  let s = Stats.create () in
  let h = Stats.histogram s "x" in
  Stats.observe h 1e30;
  (* beyond 2^40: overflow bucket *)
  Stats.observe h 1e-30 (* below 2^-40: first finite bucket *);
  let buckets = Stats.buckets h in
  Alcotest.(check int) "two non-empty buckets" 2 (List.length buckets);
  let _, _, n_last = List.nth buckets (List.length buckets - 1) in
  Alcotest.(check int) "overflow bucket holds the huge value" 1 n_last;
  Alcotest.(check (float 1e20)) "overflow quantile is exact max" 1e30
    (Stats.quantile h 1.0)

(* [Stats.bucket_of] against the binary search over the bounds it
   replaced: every float, including nan (the last finite bucket),
   infinities, zeros, negatives, subnormals, exact powers of two with
   their neighbours, and both ends of the bound range. *)
let reference_bucket v =
  let bounds = Array.init 81 (fun i -> 2. ** float_of_int (i - 40)) in
  let last = Array.length bounds - 1 in
  if v <= bounds.(0) then 0
  else if v > bounds.(last) then last + 1
  else begin
    let lo = ref 0 and hi = ref last in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

let arb_any_float =
  let open QCheck.Gen in
  let special =
    oneofl
      [ nan; infinity; neg_infinity; 0.; -0.; Float.min_float; -.Float.min_float;
        Float.max_float; -.Float.max_float; Float.succ 0.; Float.pred 0. ]
  in
  let power = map (fun e -> Float.ldexp 1. e) (int_range (-1074) 1023) in
  let near_power =
    map2 (fun e up -> (if up then Float.succ else Float.pred) (Float.ldexp 1. e))
      (int_range (-1074) 1023) bool
  in
  let in_range_edge =
    map2 (fun e d -> Float.ldexp 1. e +. (d *. Float.ldexp Float.epsilon e))
      (oneofl [ -41; -40; -39; 39; 40; 41 ]) (float_range (-2.) 2.)
  in
  let scaled =
    map3 (fun m e neg -> (if neg then Float.neg else Fun.id) (Float.ldexp m e))
      (float_range 0.5 1.) (int_range (-1080) 1030) bool
  in
  QCheck.make ~print:(Printf.sprintf "%h")
    (frequency
       [ (1, special); (2, power); (2, near_power); (2, in_range_edge); (4, scaled);
         (1, float) ])

let prop_bucket_of_matches_search =
  QCheck.Test.make ~name:"bucket_of = binary search over the bounds" ~count:5000
    arb_any_float (fun v -> Stats.bucket_of v = reference_bucket v)

(* A histogram observation from another module allocates nothing:
   [Stats.observe] is inlined into this test, so its float argument is
   never boxed.  This pins the default build's cross-module inlining;
   under [--profile dev] every module is compiled [-opaque], the call is
   real, each observation boxes its float, and this test fails by
   design. *)
let test_observe_cross_module_free () =
  let h = Stats.histogram (Stats.create ()) "x" and n = 10_000 in
  for i = 1 to 100 do
    Stats.observe h (float_of_int i *. 0.5)
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Stats.observe h (float_of_int i *. 0.5)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "observed" (n + 100) (Stats.total h);
  Alcotest.(check (float 0.01)) "minor words per observe" 0. words

(* --- profiling facade --- *)

let test_profiling_diff_symmetric () =
  (* Snapshots from different tables: ops present only in [before] must
     surface with negative deltas instead of being silently dropped. *)
  let p1 = Profiling.create () in
  Profiling.record p1 ~op:"alpha" ~bytes:10;
  Profiling.record p1 ~op:"shared" ~bytes:1;
  let p2 = Profiling.create () in
  Profiling.record p2 ~op:"beta" ~bytes:20;
  Profiling.record p2 ~op:"shared" ~bytes:1;
  let d = Profiling.diff ~before:(Profiling.snapshot p1) ~after:(Profiling.snapshot p2) in
  Alcotest.(check bool) "alpha reported as removed" true
    (List.exists (fun (op, calls, bytes) -> op = "alpha" && calls = -1 && bytes = -10) d);
  Alcotest.(check bool) "beta reported as added" true
    (List.exists (fun (op, calls, bytes) -> op = "beta" && calls = 1 && bytes = 20) d);
  Alcotest.(check bool) "unchanged op not reported" true
    (not (List.exists (fun (op, _, _) -> op = "shared") d));
  (* Result stays sorted by op, like snapshots. *)
  let ops = List.map (fun (op, _, _) -> op) d in
  Alcotest.(check (list string)) "sorted" (List.sort compare ops) ops

(* --- batched timer aggregation --- *)

let test_timer_aggregate_single_allreduce () =
  let ranks = 4 in
  let per_rank, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~ranks (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let timer = Kamping.Timer.create comm in
        let charge s =
          Runtime.charge_compute (Comm.runtime mpi) (Comm.world_rank mpi) s
        in
        Kamping.Timer.time timer "phase1" (fun () ->
            charge (0.001 *. float_of_int (Comm.rank mpi + 1)));
        Kamping.Timer.time timer "phase2" (fun () -> charge 0.002);
        Kamping.Timer.aggregate timer)
  in
  (* The aggregate is the run's only collective: one allreduce per rank
     for ALL keys — not 3 per key per rank as the naive lowering. *)
  let allreduce_calls =
    List.fold_left
      (fun acc (op, calls, _) -> if op = "allreduce" then acc + calls else acc)
      0 report.Engine.profile
  in
  Alcotest.(check int) "one allreduce per rank for 2 keys" ranks allreduce_calls;
  Array.iter
    (fun aggs ->
      match Option.get aggs with
      | [ p1; p2 ] ->
          Alcotest.(check string) "key order" "phase1" p1.Kamping.Timer.key;
          Alcotest.(check (float 1e-9)) "phase1 min" 0.001 p1.Kamping.Timer.min;
          Alcotest.(check (float 1e-9)) "phase1 max" 0.004 p1.Kamping.Timer.max;
          Alcotest.(check (float 1e-9)) "phase1 mean" 0.0025 p1.Kamping.Timer.mean;
          Alcotest.(check (float 1e-9)) "phase2 min=mean=max" p2.Kamping.Timer.min
            p2.Kamping.Timer.max
      | l -> Alcotest.failf "expected 2 aggregates, got %d" (List.length l))
    per_rank

(* --- end-to-end traces --- *)

let test_allgather_trace_layers () =
  let _, report =
    Engine.run_collect ~trace_capacity:4096 ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        ignore (Kamping.Collectives.allgather comm Datatype.int [| Comm.rank mpi |]))
  in
  let tr = report.Engine.trace in
  for rank = 0 to 3 do
    let evs = Trace.events tr rank in
    let begins cat name =
      List.filter
        (fun e -> e.Trace_stream.kind = Begin && e.cat = cat && e.name = name)
        evs
    in
    Alcotest.(check int)
      (Printf.sprintf "rank %d: one kamping allgather span" rank)
      1
      (List.length (begins "kamping" "allgather"));
    Alcotest.(check int)
      (Printf.sprintf "rank %d: one coll allgather span" rank)
      1
      (List.length (begins "coll" "allgather"));
    (* Nesting: the binding-layer span opens before and closes after the
       runtime collective's span. *)
    let index p =
      let r = ref (-1) in
      List.iteri (fun i e -> if !r < 0 && p e then r := i) evs;
      !r
    in
    let kb =
      index (fun e ->
          e.Trace_stream.kind = Begin && e.cat = "kamping" && e.name = "allgather")
    and cb =
      index (fun e ->
          e.Trace_stream.kind = Begin && e.cat = "coll" && e.name = "allgather")
    and ce =
      index (fun e ->
          e.Trace_stream.kind = End && e.cat = "coll" && e.name = "allgather")
    and ke =
      index (fun e ->
          e.Trace_stream.kind = End && e.cat = "kamping" && e.name = "allgather")
    in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d: kamping wraps coll" rank)
      true
      (kb >= 0 && kb < cb && cb < ce && ce < ke);
    (* Every rank of a 4-rank Bruck allgather sends at least once. *)
    let sends =
      List.filter
        (fun e -> e.Trace_stream.kind = Instant && e.cat = "sim" && e.name = "send")
        evs
    in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d: has send instants" rank)
      true
      (List.length sends >= 1)
  done;
  (* busy/blocked accounting matches the clocks. *)
  for r = 0 to 3 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "rank %d: busy + blocked = time" r)
      report.Engine.times.(r)
      (report.Engine.busy.(r) +. report.Engine.blocked.(r))
  done

let test_critical_path_structure () =
  let _, report =
    Engine.run_collect ~trace_capacity:4096 ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        ignore
          (Kamping.Collectives.allreduce comm Datatype.int Reduce_op.int_sum
             [| Comm.rank mpi |]))
  in
  let hops =
    Trace_report.critical_path report.Engine.trace ~times:report.Engine.times
  in
  Alcotest.(check bool) "path is non-empty" true (hops <> []);
  let last = List.nth hops (List.length hops - 1) in
  let slowest = ref 0 in
  Array.iteri
    (fun i v -> if v > report.Engine.times.(!slowest) then slowest := i)
    report.Engine.times;
  Alcotest.(check int) "ends at the slowest rank" !slowest last.Trace_report.hop_rank;
  (* Hop intervals run forward in time along the chain. *)
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "hops ordered in time" true
          (a.Trace_report.hop_to <= b.Trace_report.hop_from +. 1e-12
          || a.Trace_report.hop_to <= b.Trace_report.hop_to);
        check_monotone rest
    | _ -> ()
  in
  check_monotone hops;
  List.iter
    (fun h ->
      Alcotest.(check bool) "hop interval well-formed" true
        (h.Trace_report.hop_from <= h.Trace_report.hop_to))
    hops

let test_trace_disabled_by_default () =
  let report =
    Engine.run ~ranks:2 (fun comm -> Coll.barrier comm)
  in
  Alcotest.(check bool) "trace disabled" false (Trace.enabled report.Engine.trace);
  Alcotest.(check int) "no events" 0 (List.length (Trace.events report.Engine.trace 0));
  (* Nothing recorded: no critical path, and the report says so rather
     than printing a path that looks valid. *)
  let times = report.Engine.times in
  Alcotest.(check int) "no critical path" 0
    (List.length (Trace_report.critical_path report.Engine.trace ~times));
  Alcotest.(check string) "the report names the absence"
    "critical path: no trace events recorded\n"
    (Format.asprintf "%a" (fun ppf tr -> Trace_report.pp_critical_path ppf tr ~times)
       report.Engine.trace);
  (* Metrics still flow: the barrier's messages were counted. *)
  let sent = Stats.count (Stats.counter report.Engine.stats "msg.sent") in
  Alcotest.(check bool) "messages counted without tracing" true (sent > 0)

let tests =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "disabled mode is free" `Quick test_disabled_mode_is_free;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_parses_shape;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    Alcotest.test_case "histogram extremes" `Quick test_histogram_extremes;
    QCheck_alcotest.to_alcotest prop_bucket_of_matches_search;
    Alcotest.test_case "alloc: observe from another module is free" `Quick
      test_observe_cross_module_free;
    Alcotest.test_case "profiling diff symmetric" `Quick test_profiling_diff_symmetric;
    Alcotest.test_case "timer aggregate batched" `Quick
      test_timer_aggregate_single_allreduce;
    Alcotest.test_case "allgather trace layers" `Quick test_allgather_trace_layers;
    Alcotest.test_case "critical path structure" `Quick test_critical_path_structure;
    Alcotest.test_case "trace disabled by default" `Quick test_trace_disabled_by_default;
  ]

let () = Alcotest.run "trace" [ ("trace", tests) ]
