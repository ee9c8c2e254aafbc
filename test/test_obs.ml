(* Observability backbone: the streaming trace sink and its offline
   Chrome converter, causal message-flow tracing (Lamport clocks and the
   verified critical-path walk), the communication matrix, sorted stats
   dumps, timer gauge publication, and the bench-diff regression engine. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("mpisim_obs_" ^ name)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let has_prefix s pre =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* A small mixed workload: two collectives plus a p2p exchange, so traces
   carry coll spans, kamping spans and plain sends. *)
let mixed_program mpi =
  let comm = Kamping.Communicator.of_mpi mpi in
  let me = Comm.rank mpi in
  let n = Comm.size mpi in
  let s = Kamping.Collectives.allreduce comm Datatype.int Reduce_op.int_sum [| me |] in
  let all = Kamping.Collectives.allgather comm Datatype.int [| me * 2 |] in
  P2p.send mpi Datatype.int ~dest:((me + 1) mod n) [| me; s.(0) |];
  let d, _ = P2p.recv mpi Datatype.int ~source:((me + n - 1) mod n) () in
  s.(0) + Array.length all + d.(0)

(* --- streaming sink --- *)

let test_stream_sink_complete () =
  let path = tmp "basic.bin" in
  let _, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~trace_stream:path ~ranks:4
      mixed_program
  in
  let tr = report.Engine.trace in
  Alcotest.(check int) "no ring storage under the stream sink" 0
    (Trace.ring_capacity_total tr);
  Alcotest.(check int) "nothing dropped" 0 (Trace.total_dropped tr);
  let written = Trace.stream_events tr in
  Alcotest.(check bool) "events were streamed" true (written > 0);
  (match Trace_stream.fold_file path ~init:0 ~f:(fun n _ -> n + 1) with
  | Error msg -> Alcotest.fail msg
  | Ok (n, s) ->
      (* The fold validates per-rank sequence contiguity from zero, so
         reading back exactly what the writer counted proves no event was
         lost or reordered. *)
      Alcotest.(check int) "reader sees every written event" written n;
      Alcotest.(check int) "summary event count" written s.Trace_stream.s_events;
      Alcotest.(check int) "rank count round-trips" 4 s.Trace_stream.s_ranks);
  Sys.remove path

let test_stream_convert_valid_json () =
  let path = tmp "conv.bin" and out = tmp "conv.json" in
  let _, _ =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~trace_stream:path ~ranks:4
      mixed_program
  in
  (match Trace_stream.convert_to_chrome ~src:path ~dst:out with
  | Error msg -> Alcotest.fail msg
  | Ok s -> Alcotest.(check int) "converter rank count" 4 s.Trace_stream.s_ranks);
  let json = read_file out in
  (match Json_in.parse json with
  | Error msg -> Alcotest.failf "converter output is not valid JSON: %s" msg
  | Ok v -> (
      match Json_in.member "traceEvents" v with
      | Some (Json_in.Arr evs) ->
          Alcotest.(check bool) "has events" true (evs <> []);
          let phase ph e =
            match Json_in.member "ph" e with Some (Json_in.Str s) -> s = ph | _ -> false
          in
          Alcotest.(check bool) "has flow starts" true (List.exists (phase "s") evs);
          Alcotest.(check bool) "has flow ends" true (List.exists (phase "f") evs)
      | _ -> Alcotest.fail "no traceEvents array"));
  Alcotest.(check bool) "declares zero drops" true
    (contains ~needle:"\"droppedEvents\":0" json);
  Sys.remove path;
  Sys.remove out

let test_stream_convert_deterministic () =
  let once tag =
    let path = tmp (tag ^ ".bin") and out = tmp (tag ^ ".json") in
    let _, _ =
      Engine.run_collect ~clock_mode:Runtime.Virtual_only ~trace_stream:path ~ranks:5
        mixed_program
    in
    (match Trace_stream.convert_to_chrome ~src:path ~dst:out with
    | Error msg -> Alcotest.fail msg
    | Ok _ -> ());
    let json = read_file out in
    Sys.remove path;
    Sys.remove out;
    json
  in
  Alcotest.(check bool) "two virtual-clock runs convert byte-identically" true
    (once "det1" = once "det2")

(* The scale guarantee: a 4096-rank streamed run allocates no per-rank
   ring storage at all — memory stays bounded regardless of rank count —
   and still loses nothing. *)
let test_stream_scale_bounded_memory () =
  let path = tmp "scale.bin" in
  let _, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~trace_stream:path ~ranks:4096
      (fun mpi -> Coll.barrier mpi)
  in
  let tr = report.Engine.trace in
  Alcotest.(check int) "zero ring slots at p=4096" 0 (Trace.ring_capacity_total tr);
  Alcotest.(check int) "zero dropped at p=4096" 0 (Trace.total_dropped tr);
  let written = Trace.stream_events tr in
  (match Trace_stream.fold_file path ~init:() ~f:(fun () _ -> ()) with
  | Error msg -> Alcotest.fail msg
  | Ok ((), s) ->
      Alcotest.(check int) "all 4096 ranks in the header" 4096 s.Trace_stream.s_ranks;
      Alcotest.(check int) "file holds every event" written s.Trace_stream.s_events);
  Sys.remove path

(* --- zero-duration spans in the Chrome export --- *)

let test_zero_duration_clamp () =
  let clocks = [| 0. |] in
  let tr = Trace.create ~clocks in
  Trace.enable tr;
  Trace.complete tr ~rank:0 ~cat:"sched" ~name:"segment" ~dur:0.;
  let json = Trace.to_chrome_json tr in
  match Json_in.parse json with
  | Error msg -> Alcotest.fail msg
  | Ok v -> (
      match Json_in.member "traceEvents" v with
      | Some (Json_in.Arr evs) ->
          let x =
            List.find
              (fun e ->
                match Json_in.member "ph" e with
                | Some (Json_in.Str "X") -> true
                | _ -> false)
              evs
          in
          (match Option.bind (Json_in.member "dur" x) Json_in.to_float with
          | Some dur ->
              Alcotest.(check bool) "duration clamped visible" true (dur > 0.)
          | None -> Alcotest.fail "X event has no dur");
          let tagged =
            match Json_in.member "args" x with
            | Some args -> (
                match Option.bind (Json_in.member "zero_dur" args) Json_in.to_float with
                | Some f -> f = 1.
                | None -> false)
            | None -> false
          in
          Alcotest.(check bool) "tagged zero_dur=1" true tagged
      | _ -> Alcotest.fail "no traceEvents array")

(* --- sorted stats dumps --- *)

let test_stats_sorted_iteration () =
  let s = Stats.create () in
  List.iter (fun n -> Stats.incr (Stats.counter s n)) [ "zeta"; "alpha"; "mid" ];
  Stats.set (Stats.gauge s "g2") 2.;
  Stats.set (Stats.gauge s "g1") 1.;
  let counters = ref [] and gauges = ref [] in
  Stats.iter_counters s (fun n _ -> counters := n :: !counters);
  Stats.iter_gauges s (fun n _ -> gauges := n :: !gauges);
  Alcotest.(check (list string))
    "counters sorted by name"
    [ "alpha"; "mid"; "zeta" ]
    (List.rev !counters);
  Alcotest.(check (list string)) "gauges sorted by name" [ "g1"; "g2" ]
    (List.rev !gauges)

(* --- communication matrix --- *)

let test_comm_matrix_attribution () =
  let _, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~comm_matrix:true ~ranks:4
      mixed_program
  in
  let cm = report.Engine.comm_matrix in
  let entries = Comm_matrix.entries cm in
  Alcotest.(check bool) "matrix is non-empty" true (entries <> []);
  let keys =
    List.map
      (fun e -> (e.Comm_matrix.cm_src, e.Comm_matrix.cm_dst, e.Comm_matrix.cm_label))
      entries
  in
  Alcotest.(check bool) "entries sorted by (src, dst, label)" true
    (List.sort compare keys = keys);
  Alcotest.(check bool) "collective traffic carries an algorithm label" true
    (List.exists (fun e -> e.Comm_matrix.cm_label <> Comm_matrix.p2p_label) entries);
  Alcotest.(check bool) "ring exchange attributed to p2p" true
    (List.exists
       (fun e ->
         e.Comm_matrix.cm_src = 0 && e.Comm_matrix.cm_dst = 1
         && e.Comm_matrix.cm_label = Comm_matrix.p2p_label)
       entries);
  let msgs, bytes = Comm_matrix.totals cm in
  Alcotest.(check bool) "totals positive" true (msgs > 0 && bytes > 0);
  Alcotest.(check int) "matrix counts every injected message" msgs
    (Stats.count (Stats.counter report.Engine.stats "msg.sent"));
  (* Aggregates were published into the stats registry. *)
  let published = ref false in
  Stats.iter_counters report.Engine.stats (fun n _ ->
      if has_prefix n "comm.msgs." then published := true);
  Alcotest.(check bool) "comm.msgs.* published in stats" true !published;
  Alcotest.(check bool) "csv header" true
    (has_prefix (Comm_matrix.csv cm) "src,dst,algo,msgs,bytes\n")

let test_comm_matrix_off_by_default () =
  let _, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~ranks:2 mixed_program
  in
  Alcotest.(check bool) "disabled by default" false
    (Comm_matrix.enabled report.Engine.comm_matrix);
  Alcotest.(check int) "no cells recorded" 0
    (List.length (Comm_matrix.entries report.Engine.comm_matrix))

(* --- causal tracing: Lamport clocks and the verified critical path --- *)

let test_lamport_send_match_instants () =
  let ranks = 4 in
  let _, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~trace_capacity:65536 ~ranks
      mixed_program
  in
  let tr = report.Engine.trace in
  for r = 0 to ranks - 1 do
    let ds =
      List.filter_map
        (fun e ->
          if e.Trace.kind = Trace.Instant && e.Trace.cat = "sim" && e.Trace.d >= 0 then
            Some e.Trace.d
          else None)
        (Trace.events tr r)
    in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d: has Lamport-stamped instants" r)
      true (ds <> []);
    let rec strictly_increasing = function
      | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
      | _ -> true
    in
    Alcotest.(check bool)
      (Printf.sprintf "rank %d: Lamport clock strictly increases" r)
      true (strictly_increasing ds)
  done;
  (* Every match carries a Lamport stamp strictly above its send's. *)
  let sends = Hashtbl.create 64 in
  for r = 0 to ranks - 1 do
    List.iter
      (fun e ->
        if e.Trace.kind = Trace.Instant && e.Trace.cat = "sim" && e.Trace.name = "send"
        then Hashtbl.replace sends e.Trace.b e.Trace.d)
      (Trace.events tr r)
  done;
  let checked = ref 0 in
  for r = 0 to ranks - 1 do
    List.iter
      (fun e ->
        if
          e.Trace.kind = Trace.Instant && e.Trace.cat = "sim"
          && (e.Trace.name = "match" || e.Trace.name = "match_wait")
        then
          match Hashtbl.find_opt sends e.Trace.b with
          | Some send_lam ->
              incr checked;
              Alcotest.(check bool) "send Lamport < match Lamport" true
                (send_lam < e.Trace.d)
          | None -> ())
      (Trace.events tr r)
  done;
  Alcotest.(check bool) "checked at least one send->match edge" true (!checked > 0)

let test_critical_path_verified_edges () =
  let _, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~trace_capacity:65536 ~ranks:4
      mixed_program
  in
  let hops =
    Trace_report.critical_path report.Engine.trace ~times:report.Engine.times
  in
  Alcotest.(check bool) "path is non-empty" true (hops <> []);
  let edges =
    List.filter (fun h -> h.Trace_report.via_src >= 0) hops
  in
  Alcotest.(check bool) "path crosses at least one rank" true (edges <> []);
  List.iter
    (fun h ->
      Alcotest.(check bool) "every crossed edge is verified" true
        h.Trace_report.via_verified;
      Alcotest.(check bool) "edge latency is non-negative" true
        (h.Trace_report.via_latency >= 0.))
    edges;
  (* The report renders the verification summary and per-edge slack. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Trace_report.pp_critical_path ppf report.Engine.trace ~times:report.Engine.times;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  Alcotest.(check bool) "report mentions verified edges" true
    (contains ~needle:"edges verified send->recv" text)

(* --- timer gauges --- *)

let test_timer_publishes_gauges () =
  let _, report =
    Engine.run_collect ~clock_mode:Runtime.Virtual_only ~ranks:2 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let timer = Kamping.Timer.create comm in
        Kamping.Timer.time timer "io" (fun () ->
            Runtime.charge_compute (Comm.runtime mpi) (Comm.world_rank mpi) 0.001);
        ignore (Kamping.Timer.aggregate timer))
  in
  let found = ref [] in
  Stats.iter_gauges report.Engine.stats (fun n _ ->
      if has_prefix n "timer.io." then found := n :: !found);
  Alcotest.(check (list string))
    "aggregate published min/mean/max gauges"
    [ "timer.io.max_seconds"; "timer.io.mean_seconds"; "timer.io.min_seconds" ]
    (List.rev !found)

(* --- disabled hot paths stay allocation-free --- *)

let test_disabled_paths_allocation_free () =
  let clocks = [| 0. |] in
  let tr = Trace.create ~clocks in
  let cm = Comm_matrix.create ~size:2 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Trace.instant_d tr ~rank:0 ~cat:"c" ~name:"i" ~a:i ~b:0 ~c:0 ~d:i;
    Comm_matrix.record cm ~src:0 ~dst:1 ~bytes:i
  done;
  let allocated = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "disabled instant_d + matrix record allocate nothing (%.0f words)"
       allocated)
    true (allocated < 100.);
  Alcotest.(check int) "matrix stayed empty" 0 (List.length (Comm_matrix.entries cm))

(* --- chaos properties (qcheck) --- *)

let chaos_trace_events ~seed =
  let rates =
    { Net_model.drop = 0.05; duplicate = 0.3; reorder = 0.3; corrupt = 0.; jitter = 0. }
  in
  let chaos = Chaos.config ~seed ~rates ~max_retries:10 () in
  let ranks = 3 in
  let program mpi =
    let me = Comm.rank mpi in
    let n = Comm.size mpi in
    for round = 1 to 8 do
      P2p.send mpi Datatype.int ~dest:((me + 1) mod n) [| (me * 100) + round |];
      ignore (P2p.recv mpi Datatype.int ~source:((me + n - 1) mod n) ())
    done
  in
  match
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only ~chaos
      ~trace_capacity:65536 ~ranks program
  with
  | exception Scheduler.Aborted _ -> None (* escalated to ERR_PROC_FAILED: rare, fine *)
  | exception Errdefs.Mpi_error _ -> None
  | _, report ->
      let evs = ref [] in
      for r = ranks - 1 downto 0 do
        evs := (r, Trace.events report.Engine.trace r) :: !evs
      done;
      Some !evs

(* Duplicated or retransmitted deliveries must never produce a second
   flow-end (match) event for the same flow id, and every matched flow
   has exactly one send. *)
let test_chaos_flow_dedup =
  QCheck.Test.make ~name:"chaos duplicates never double-match a flow" ~count:12
    QCheck.(int_bound 100_000)
    (fun seed ->
      match chaos_trace_events ~seed with
      | None -> true
      | Some per_rank ->
          let sends = Hashtbl.create 128 and matches = Hashtbl.create 128 in
          List.iter
            (fun (_, evs) ->
              List.iter
                (fun e ->
                  if e.Trace.kind = Trace.Instant && e.Trace.cat = "sim" then begin
                    let bump tbl =
                      Hashtbl.replace tbl e.Trace.b
                        (1 + Option.value (Hashtbl.find_opt tbl e.Trace.b) ~default:0)
                    in
                    if e.Trace.name = "send" then bump sends
                    else if e.Trace.name = "match" || e.Trace.name = "match_wait" then
                      bump matches
                  end)
                evs)
            per_rank;
          Hashtbl.fold (fun _ n ok -> ok && n <= 1) matches true
          && Hashtbl.fold
               (fun seq _ ok -> ok && Hashtbl.find_opt sends seq = Some 1)
               matches true)

let test_chaos_lamport_monotone =
  QCheck.Test.make ~name:"Lamport clocks monotone per rank under reordering" ~count:12
    QCheck.(int_bound 100_000)
    (fun seed ->
      match chaos_trace_events ~seed with
      | None -> true
      | Some per_rank ->
          List.for_all
            (fun (_, evs) ->
              let ds =
                List.filter_map
                  (fun e ->
                    if
                      e.Trace.kind = Trace.Instant && e.Trace.cat = "sim"
                      && e.Trace.d >= 0
                    then Some e.Trace.d
                    else None)
                  evs
              in
              let rec increasing = function
                | a :: (b :: _ as rest) -> a < b && increasing rest
                | _ -> true
              in
              increasing ds)
            per_rank)

(* --- JSON parser --- *)

let test_json_in_parses () =
  (match Json_in.parse {| {"a": 1, "b": [true, null, "x\nA"], "c": -2.5e1} |} with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
      Alcotest.(check (option (float 0.))) "int field" (Some 1.)
        (Option.bind (Json_in.member "a" v) Json_in.to_float);
      Alcotest.(check (option (float 0.))) "float field" (Some (-25.))
        (Option.bind (Json_in.member "c" v) Json_in.to_float);
      (match Json_in.member "b" v with
      | Some (Json_in.Arr [ Json_in.Bool true; Json_in.Null; Json_in.Str s ]) ->
          Alcotest.(check string) "escapes decoded" "x\nA" s
      | _ -> Alcotest.fail "array shape"));
  (match Json_in.parse "{\"a\": 1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  match Json_in.parse_lines "{\"x\": 1}\n\n{\"x\": 2}\n" with
  | Ok [ _; _ ] -> ()
  | Ok l -> Alcotest.failf "expected 2 lines, got %d" (List.length l)
  | Error msg -> Alcotest.fail msg

(* Surrogate pairs decode to the astral code point; a lone surrogate or a
   truncated pair is a clean error. *)
let test_json_in_surrogates () =
  (match Json_in.parse {| "😀" |} with
  | Ok (Json_in.Str s) ->
      Alcotest.(check string) "U+1F600 as UTF-8" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error msg -> Alcotest.failf "surrogate pair rejected: %s" msg);
  (match Json_in.parse {| "pre 😀 post" |} with
  | Ok (Json_in.Str s) ->
      Alcotest.(check string) "embedded pair" "pre \xf0\x9f\x98\x80 post" s
  | Ok _ | Error _ -> Alcotest.fail "embedded surrogate pair");
  List.iter
    (fun src ->
      match Json_in.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed surrogate %S" src
      | Error _ -> ())
    [ {| "\ud83d" |}; {| "\ud83dx" |}; {| "\ud83dA" |}; {| "\ude00" |} ]

(* Deep nesting must fail with a parse error, never Stack_overflow. *)
let test_json_in_depth_bounded () =
  (* Comfortably under the cap: parses fine. *)
  let nested n = String.concat "" [ String.make n '['; "1"; String.make n ']' ] in
  (match Json_in.parse (nested 500) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "500 levels rejected: %s" msg);
  (* Adversarial: 100k unclosed brackets.  The old recursive descent
     overflowed the stack here. *)
  (match Json_in.parse (String.make 100_000 '[') with
  | Ok _ -> Alcotest.fail "accepted 100k open brackets"
  | Error msg ->
      Alcotest.(check bool) "names the nesting bound" true
        (String.length msg > 0)
  | exception Stack_overflow -> Alcotest.fail "stack overflow on deep nesting");
  match Json_in.parse (nested 5_000) with
  | Ok _ -> Alcotest.fail "accepted 5k levels"
  | Error _ -> ()
  | exception Stack_overflow -> Alcotest.fail "stack overflow on deep nesting"

(* Truncated documents surface as clean errors at every cut point. *)
let test_json_in_truncated () =
  let full = {|{"a": [1, true, "xA"], "b": {"c": null}}|} in
  for cut = 0 to String.length full - 1 do
    match Json_in.parse (String.sub full 0 cut) with
    | Ok _ when cut = 0 -> Alcotest.fail "accepted empty input"
    | Ok _ -> Alcotest.failf "accepted truncation at %d" cut
    | Error _ -> ()
    | exception exn ->
        Alcotest.failf "raised %s at cut %d" (Printexc.to_string exn) cut
  done

(* --- bench-diff engine --- *)

let mk bench keys metrics =
  { Bench_compare.r_bench = bench; r_keys = keys; r_metrics = metrics }

let test_bench_compare_directions () =
  Alcotest.(check bool) "seconds lower-better" true
    (Bench_compare.metric_direction "sim_seconds" = Some Bench_compare.Lower_better);
  Alcotest.(check bool) "per_second higher-better" true
    (Bench_compare.metric_direction "bytes_per_second" = Some Bench_compare.Higher_better);
  Alcotest.(check bool) "speedup higher-better" true
    (Bench_compare.metric_direction "speedup" = Some Bench_compare.Higher_better);
  Alcotest.(check bool) "peak elems lower-better" true
    (Bench_compare.metric_direction "scratch_peak_elems" = Some Bench_compare.Lower_better);
  Alcotest.(check bool) "allocation words lower-better" true
    (Bench_compare.metric_direction "msg_minor_words" = Some Bench_compare.Lower_better);
  Alcotest.(check bool) "callback counts lower-better" true
    (Bench_compare.metric_direction "bulk_calls" = Some Bench_compare.Lower_better);
  Alcotest.(check bool) "plain config field is identity" true
    (Bench_compare.metric_direction "ranks" = None);
  Alcotest.(check bool) "wall detection" true
    (Bench_compare.is_wall "median_wall_seconds" && not (Bench_compare.is_wall "sim_seconds"))

let test_bench_compare_verdicts () =
  let baseline =
    [ mk "pingpong" [ ("ranks", "2") ] [ ("sim_seconds", 1.0); ("rate_per_second", 100.) ] ]
  in
  (* Identical runs: no regressions. *)
  let same =
    Bench_compare.diff ~baseline ~current:baseline ()
  in
  Alcotest.(check bool) "identical -> clean" false (Bench_compare.has_regressions same);
  Alcotest.(check int) "identical -> both metrics compared" 2 same.Bench_compare.compared;
  (* Injected synthetic regression: slower AND lower throughput. *)
  let bad =
    [ mk "pingpong" [ ("ranks", "2") ] [ ("sim_seconds", 1.25); ("rate_per_second", 80.) ] ]
  in
  let v = Bench_compare.diff ~baseline ~current:bad () in
  Alcotest.(check bool) "regression detected" true (Bench_compare.has_regressions v);
  Alcotest.(check int) "both directions flagged" 2
    (List.length v.Bench_compare.regressions);
  (* The same drift inside tolerance passes. *)
  let near =
    [ mk "pingpong" [ ("ranks", "2") ] [ ("sim_seconds", 1.05); ("rate_per_second", 96.) ] ]
  in
  Alcotest.(check bool) "within tolerance -> clean" false
    (Bench_compare.has_regressions (Bench_compare.diff ~baseline ~current:near ()));
  Alcotest.(check bool) "tight tolerance flags it" true
    (Bench_compare.has_regressions
       (Bench_compare.diff ~tolerance:0.01 ~baseline ~current:near ()));
  (* Improvements are reported separately, never as failures. *)
  let better =
    [ mk "pingpong" [ ("ranks", "2") ] [ ("sim_seconds", 0.5); ("rate_per_second", 200.) ] ]
  in
  let vi = Bench_compare.diff ~baseline ~current:better () in
  Alcotest.(check bool) "improvement is not a regression" false
    (Bench_compare.has_regressions vi);
  Alcotest.(check int) "improvements counted" 2 (List.length vi.Bench_compare.improvements)

let test_bench_compare_identity_and_wall () =
  let baseline =
    [ mk "coll" [ ("ranks", "64") ] [ ("sim_seconds", 1.0); ("median_wall_seconds", 1.0) ] ]
  in
  (* Different identity (ranks) never matches: counted as missing. *)
  let other = [ mk "coll" [ ("ranks", "128") ] [ ("sim_seconds", 9.9) ] ] in
  let v = Bench_compare.diff ~baseline ~current:other () in
  Alcotest.(check bool) "no cross-identity comparison" false
    (Bench_compare.has_regressions v);
  Alcotest.(check int) "missing baseline counted" 1 v.Bench_compare.missing_baseline;
  (* Wall-clock metrics are skipped unless opted in. *)
  let slow_wall =
    [ mk "coll" [ ("ranks", "64") ] [ ("sim_seconds", 1.0); ("median_wall_seconds", 5.0) ] ]
  in
  let skipped = Bench_compare.diff ~baseline ~current:slow_wall () in
  Alcotest.(check bool) "wall skipped by default" false
    (Bench_compare.has_regressions skipped);
  Alcotest.(check int) "skip counted" 1 skipped.Bench_compare.skipped_wall;
  Alcotest.(check bool) "wall gated when included" true
    (Bench_compare.has_regressions
       (Bench_compare.diff ~include_wall:true ~baseline ~current:slow_wall ()))

let test_bench_compare_record_of_json () =
  match Json_in.parse {| {"bench": "fig8", "ranks": 64.0, "algo": "bruck", "sim_seconds": 0.25} |} with
  | Error msg -> Alcotest.fail msg
  | Ok j -> (
      match Bench_compare.record_of_json j with
      | None -> Alcotest.fail "object rejected"
      | Some r ->
          Alcotest.(check string) "bench name" "fig8" r.Bench_compare.r_bench;
          (* 64.0 prints as 64, so float and int configs share an identity. *)
          Alcotest.(check bool) "identity" true
            (Bench_compare.identity r = "fig8|algo=bruck|ranks=64");
          Alcotest.(check bool) "metric split out" true
            (r.Bench_compare.r_metrics = [ ("sim_seconds", 0.25) ]))

let tests =
  [
    Alcotest.test_case "stream sink completeness" `Quick test_stream_sink_complete;
    Alcotest.test_case "stream converter valid JSON" `Quick test_stream_convert_valid_json;
    Alcotest.test_case "stream converter deterministic" `Quick
      test_stream_convert_deterministic;
    Alcotest.test_case "stream scale p=4096 bounded memory" `Slow
      test_stream_scale_bounded_memory;
    Alcotest.test_case "zero-duration clamp" `Quick test_zero_duration_clamp;
    Alcotest.test_case "stats sorted iteration" `Quick test_stats_sorted_iteration;
    Alcotest.test_case "comm matrix attribution" `Quick test_comm_matrix_attribution;
    Alcotest.test_case "comm matrix off by default" `Quick test_comm_matrix_off_by_default;
    Alcotest.test_case "lamport send/match instants" `Quick
      test_lamport_send_match_instants;
    Alcotest.test_case "critical path verified edges" `Quick
      test_critical_path_verified_edges;
    Alcotest.test_case "timer publishes gauges" `Quick test_timer_publishes_gauges;
    Alcotest.test_case "disabled paths allocation-free" `Quick
      test_disabled_paths_allocation_free;
    qtest test_chaos_flow_dedup;
    qtest test_chaos_lamport_monotone;
    Alcotest.test_case "json_in parses" `Quick test_json_in_parses;
    Alcotest.test_case "json_in surrogate pairs" `Quick test_json_in_surrogates;
    Alcotest.test_case "json_in nesting bounded" `Quick test_json_in_depth_bounded;
    Alcotest.test_case "json_in truncated input" `Quick test_json_in_truncated;
    Alcotest.test_case "bench compare directions" `Quick test_bench_compare_directions;
    Alcotest.test_case "bench compare verdicts" `Quick test_bench_compare_verdicts;
    Alcotest.test_case "bench compare identity and wall" `Quick
      test_bench_compare_identity_and_wall;
    Alcotest.test_case "bench compare record_of_json" `Quick
      test_bench_compare_record_of_json;
  ]

let () = Alcotest.run "obs" [ ("obs", tests) ]
