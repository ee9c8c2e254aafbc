(* Simulator benchmark: four workloads through the public Engine/Kamping
   API, end-to-end metrics from an untraced run, per-layer metrics and
   the cost ledger from a separate traced run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]; lines before it start
   with '#'.  The exit code is 0 when every output check passed, 1
   otherwise, 2 on a usage error.  See layers.json beside this file for
   what each metric means and which end-to-end metric it should move. *)

open Mpisim
open Harness

let workload_name = ref ""

let seed = ref 1

let seconds = ref 10.

let trace = ref 0

let revision = ref "unknown"

(* Where the traced run writes its spans, relative to the working
   directory. *)
let out_dir = ".simbench"

let usage () =
  Printf.eprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun (w : workload) -> w.name) Workloads.all));
  exit 2

let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* ---- small statistics ---- *)

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [q] quantile of sorted [a]: the smallest sample with at least a
   [q] share of the samples at or below it. *)
let quantile (a : int array) q =
  let n = Array.length a in
  if n = 0 then 0. else float_of_int a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let per x n = if n = 0 then 0. else x /. float_of_int n

let ratio a b = if b = 0. then 0. else a /. b

(* ---- window arithmetic over snapshots ---- *)

let calls (s : Profiling.summary) op =
  List.fold_left (fun acc (o, c, _) -> if o = op then acc + c else acc) 0 s

let op_bytes (s : Profiling.summary) op =
  List.fold_left (fun acc (o, _, b) -> if o = op then acc + b else acc) 0 s

(* Profiling ops of the point-to-point layer (user sends, and the
   messages collectives are built from); everything else is a
   collective-level or plugin-level call. *)
let p2p_ops =
  [ "send"; "recv"; "ssend"; "isend"; "issend"; "irecv"; "iprobe"; "probe"; "sendrecv";
    "send_bytes"; "recv_bytes"; "recv_into" ]

let plugin_ops = [ "sparse_alltoallv" ]

let sum_calls s pred = List.fold_left (fun acc (o, c, _) -> if pred o then acc + c else acc) 0 s

let is_coll_op o = not (List.mem o p2p_ops || List.mem o plugin_ops)

let profile_delta (b : batch) = Profiling.diff ~before:b.before.profile ~after:b.after.profile

(* Rank 0's span counts and self nanoseconds over a batch, summed over
   the span names of [layers]. *)
let span_layer (b : batch) layers =
  let c = ref 0 and ns = ref 0 in
  for id = 0 to !Spans.n_names - 1 do
    if List.mem (Spans.layer_of id) layers then begin
      c := !c + b.after.span_counts.(id) - b.before.span_counts.(id);
      ns := !ns + b.after.span_ns.(id) - b.before.span_ns.(id)
    end
  done;
  (!c, !ns)

(* Highest mailbox-depth bucket that gained observations in the window:
   its upper bound. *)
let depth_max (b : batch) =
  let count_in buckets (lo, hi) =
    List.fold_left (fun acc (l, h, c) -> if l = lo && h = hi then acc + c else acc) 0 buckets
  in
  List.fold_left
    (fun acc (lo, hi, c) ->
      if c > count_in b.before.depth_buckets (lo, hi) then Float.max acc hi else acc)
    0. b.after.depth_buckets

(* ---- output ---- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_number x.value) x.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let report_failures (o : outcome) =
  List.iter (fun f -> Printf.eprintf "simbench: %s\n%!" f) o.failures

(* ---- the untraced run: end-to-end metrics ---- *)

let min_setups = 5

let setup_budget_ns = 1_000_000_000

(* One set-up, in a setup-only run between two timings of the reference
   kernel: its wall nanoseconds, and its seconds at reference speed. *)
let one_setup (wl : workload) =
  let k0 = Calib.measure () in
  let ns = (Harness.run wl ~seed:!seed setup_only).setup_ns in
  let k1 = Calib.measure () in
  (ns, Calib.scale ns ~kernel_ns:((k0 +. k1) /. 2.) *. 1e-9)

let quantile_float (a : float array) q =
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Wall times are reported at reference speed (see calib.ml); the raw
   wall figures are printed beside them. *)
let end_to_end (wl : workload) =
  let o = Harness.run wl ~seed:!seed (timed_plan wl ~seconds:!seconds ~min_samples:100) in
  report_failures o;
  let exact, timed =
    match o.batches with e :: t -> (e, t) | [] -> failwith "no exact window was run"
  in
  (* The heap peak is read at the end of the last timed batch, before
     the set-ups below, so it does not depend on how many there are. *)
  let last = List.fold_left (fun _ b -> b) exact timed in
  let raw = Array.concat (List.map samples timed) in
  let scaled = Array.concat (List.map scaled_samples timed) in
  Array.sort compare raw;
  Array.sort compare scaled;
  (* Set-up is timed in setup-only runs: at least [min_setups], more
     while they are cheap, reported as the median. *)
  let setups = ref [] in
  while
    let n = List.length !setups in
    n < min_setups || (List.fold_left (fun a (ns, _) -> a + ns) 0 !setups < setup_budget_ns && n < 50)
  do
    setups := one_setup wl :: !setups
  done;
  let n = Array.length scaled in
  let raw_s = float_of_int (Array.fold_left ( + ) 0 raw) *. 1e-9 in
  let scaled_s = Array.fold_left ( +. ) 0. scaled *. 1e-9 in
  let k = exact.item.n in
  let kernel = Array.init !Samples.marks (fun j -> Samples.mark_ns.{j}) in
  Array.sort compare kernel;
  info "workload %s: %d timed steps (p90 has %d samples beyond it), %d setups" wl.name n
    (n - int_of_float (ceil (0.9 *. float_of_int n))) (List.length !setups);
  info "reference kernel ns (nominal %.0f): %d timings, min %.0f p50 %.0f max %.0f" Calib.nominal_ns
    (Array.length kernel) (quantile_float kernel 0.) (quantile_float kernel 0.5)
    (quantile_float kernel 1.);
  info "raw wall: setup_s %.6f steps_per_s %.2f step_ms_p50 %.4f step_ms_p90 %.4f"
    (median_float (List.map (fun (ns, _) -> float_of_int ns *. 1e-9) !setups))
    (ratio (float_of_int n) raw_s) (quantile raw 0.5 *. 1e-6) (quantile raw 0.9 *. 1e-6);
  info "batch mean step ms (reference speed): %s"
    (String.concat " "
       (List.map
          (fun b ->
            let a = scaled_samples b in
            Printf.sprintf "%.3f" (per (Array.fold_left ( +. ) 0. a) (Array.length a) *. 1e-6))
          timed));
  info "step ms deciles (reference speed): %s"
    (String.concat " "
       (List.init 9 (fun i ->
            Printf.sprintf "%.3f" (quantile_float scaled (float_of_int (i + 1) /. 10.) *. 1e-6))));
  ( o,
    [
      m "setup_s" "s" (median_float (List.map snd !setups));
      m "steps_per_s" "1/s" (ratio (float_of_int n) scaled_s);
      m "step_ms_p50" "ms" (quantile_float scaled 0.5 *. 1e-6);
      m "step_ms_p90" "ms" (quantile_float scaled 0.9 *. 1e-6);
      m "alloc_words_per_step" "words" (per (exact.after.minor_words -. exact.before.minor_words) k);
      m "peak_heap_mb" "MB" (float_of_int (last.after.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      m "sim_us_per_step" "sim_us" (per ((exact.after.max_clock -. exact.before.max_clock) *. 1e6) k);
    ] )

(* ---- the traced run: per-layer metrics and the ledger ---- *)

let find_batch batches ~variant ~spans =
  List.find (fun b -> b.item.variant = variant && b.item.spans = spans && b.item.n > 0) batches

let has wl v = List.mem v wl.variants

(* Window deltas over one full cycle, the empty window's footprint
   (snapshot allocation, barrier parks) taken off. *)
type window = {
  b : batch;
  prof : Profiling.summary;
  words : float;
  minor_gcs : float;
  major_gcs : float;
  promoted : float;
  parks : float;
  park_s : float;
}

let window ~empty (b : batch) =
  let d f = f b.after -. f b.before -. (f empty.after -. f empty.before) in
  {
    b;
    prof = profile_delta b;
    words = d (fun s -> s.minor_words);
    minor_gcs = d (fun s -> float_of_int s.minor_gcs);
    major_gcs = d (fun s -> float_of_int s.major_gcs);
    promoted = d (fun s -> s.promoted_words);
    parks = d (fun s -> float_of_int s.park_n);
    park_s = d (fun s -> s.park_sum);
  }

(* The §III-H check: the binding issues exactly the raw calls, plus the
   documented count exchange only where counts are inferred. *)
let same_calls name (a : Profiling.summary) (b : Profiling.summary) =
  match Profiling.diff ~before:b ~after:a with
  | [] -> true
  | d ->
      Printf.eprintf "simbench: %s issue different calls:%s\n%!" name
        (String.concat ""
           (List.map (fun (o, c, by) -> Printf.sprintf " %s%+d calls/%+d bytes" o c by) d));
      false

(* Share of a window's profiled payload bytes whose datatype has a bulk
   kernel, each op's bytes typed by the workload; an op it does not type
   counts as without one. *)
let bulk_byte_share (wl : workload) (prof : Profiling.summary) =
  let bulk, total =
    List.fold_left
      (fun (bulk, total) (op, _, bytes) ->
        let has_bulk =
          match List.assoc_opt op wl.op_types with
          | Some (Dt dt) -> Datatype.bulk_available dt
          | None ->
              if bytes > 0 then info "profiled op %s (%d bytes) has no datatype" op bytes;
              false
        in
        ((if has_bulk then bulk + bytes else bulk), total + bytes))
      (0, 0) prof
  in
  ratio (float_of_int bulk) (float_of_int total)

(* Per-item aggregates over the peel's rounds. *)
type peel = { steps : int; ns : int; batch_means : float list; all : int array; span_batches : batch list }

let peel_of batches (v, spans) =
  let mine = List.filter (fun b -> b.item.variant = v && b.item.spans = spans) batches in
  let all = Array.concat (List.map samples mine) in
  Array.sort compare all;
  {
    steps = Array.length all;
    ns = Array.fold_left ( + ) 0 all;
    batch_means =
      List.map
        (fun b -> per (float_of_int (Array.fold_left ( + ) 0 (samples b))) b.count)
        mine;
    all;
    span_batches = mine;
  }

let mean_step p = per (float_of_int p.ns) p.steps

(* Rank 0's span self nanoseconds per step of [layers] over a peel item. *)
let span_ns_per_step p layers =
  let ns = List.fold_left (fun acc b -> acc + snd (span_layer b layers)) 0 p.span_batches in
  per (float_of_int ns) p.steps

(* Every rank's span nanoseconds per step of [layers] over a peel item. *)
let all_span_ns_per_step p layers =
  let ns =
    List.fold_left
      (fun acc b ->
        let s = ref acc in
        for id = 0 to !Spans.n_names - 1 do
          if List.mem (Spans.layer_of id) layers then
            s := !s + b.after.span_all_ns.(id) - b.before.span_all_ns.(id)
        done;
        !s)
      0 p.span_batches
  in
  per (float_of_int ns) p.steps

(* Median over rounds of the paired ratio a/b - 1, in percent. *)
let paired_overhead_pct a b =
  let rec pairs xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
  in
  100. *. median_float (List.map (fun (x, y) -> ratio x y -. 1.) (pairs a.batch_means b.batch_means))

let per_layer (wl : workload) =
  let k = wl.cycle in
  let kf = float_of_int k in
  let ranks = float_of_int wl.ranks in
  let window_items =
    (Kamping_traced, true) :: List.map (fun v -> (v, false)) wl.variants
  in
  (* 1. exact windows: calls, messages, bytes, words *)
  let counts = Harness.run wl ~seed:!seed (windows_plan wl window_items) in
  report_failures counts;
  let empty = List.hd counts.batches in
  let w v spans = window ~empty (find_batch counts.batches ~variant:v ~spans) in
  let wk = w Kamping_traced false and wr = w Raw false in
  let spans_w = (w Kamping_traced true).b in
  (* 2. the same window with the scheduler's park hooks on *)
  let hooked = Harness.run ~hooks:true wl ~seed:!seed (windows_plan wl [ (Kamping_traced, false) ]) in
  report_failures hooked;
  let wp =
    window ~empty:(List.hd hooked.batches)
      (find_batch hooked.batches ~variant:Kamping_traced ~spans:false)
  in
  (* 3. the peel: interleaved rounds of every variant, spans on and off *)
  let peel_items =
    [ (Kamping_traced, true); (Kamping_traced, false); (Raw, true); (Raw, false) ]
    @ List.filter_map (fun v -> if has wl v then Some (v, false) else None) [ Explicit; Named ]
  in
  Spans.keep ();
  let timing = Harness.run wl ~seed:!seed (rounds_plan wl peel_items ~seconds:!seconds) in
  report_failures timing;
  let peel_batches = List.filter (fun b -> b.item.tag = "peel") timing.batches in
  let pk = peel_of peel_batches (Kamping_traced, true)
  and pu = peel_of peel_batches (Kamping_traced, false)
  and prt = peel_of peel_batches (Raw, true)
  and pr = peel_of peel_batches (Raw, false) in
  (* §III-H *)
  let calls_ok =
    if has wl Explicit then
      same_calls "explicit kamping and raw" (w Explicit false).prof wr.prof
      && same_calls "named kamping and raw" (w Named false).prof wr.prof
      && same_calls "inferred kamping and raw plus count exchange" wk.prof
           (w Raw_exchange false).prof
    else same_calls "kamping and raw" wk.prof wr.prof
  in
  (* counts over the kamping window *)
  let d = wk.b in
  let sent = float_of_int (d.after.sent - d.before.sent) in
  let msgs_per_step = sent /. kf in
  let size_n = d.after.size_n - d.before.size_n in
  let mean_bytes = per (d.after.size_sum -. d.before.size_sum) size_n in
  let bytes_per_step = (d.after.size_sum -. d.before.size_sum) /. kf in
  let unexpected_share = ratio (float_of_int (d.after.unexpected - d.before.unexpected)) sent in
  let depth_mean =
    per (d.after.depth_sum -. d.before.depth_sum) (d.after.depth_n - d.before.depth_n)
  in
  let kamping_calls, _ = span_layer spans_w [ "kamping" ] in
  let kamping_calls_per_step = float_of_int kamping_calls /. kf in
  let plugin_calls_rank0, _ = span_layer spans_w [ "plugins" ] in
  let coll_calls_all = float_of_int (sum_calls wr.prof is_coll_op) in
  let user_msgs = List.fold_left (fun a op -> a + calls wr.prof op) 0 wl.user_send_ops in
  let user_bytes = List.fold_left (fun a op -> a + op_bytes wr.prof op) 0 wl.user_send_ops in
  let wr_sent = float_of_int (wr.b.after.sent - wr.b.before.sent) in
  let wr_bytes = wr.b.after.size_sum -. wr.b.before.size_sum in
  let extra_calls = float_of_int (sum_calls wk.prof is_coll_op) -. coll_calls_all in
  let kamping_calls_all = float_of_int kamping_calls *. ranks in
  let iprobes = float_of_int (calls wk.prof "iprobe") in
  let issends = float_of_int (calls wk.prof "issend") in
  let yields_per_step = Float.max 0. (iprobes -. issends) /. kf in
  let switches_per_step = (wp.parks /. kf) +. yields_per_step in
  (* lower layers, timed alone at the observed shapes *)
  let mean_size = max 1 (int_of_float (Float.round mean_bytes)) in
  let dc = Micro.costs wl.payload ~bytes:mean_size in
  let match_ns =
    Micro.match_ns ~depth:(int_of_float (ceil depth_mean)) ~unexpected_share
      ~wildcard:wl.wildcard_recv
  in
  let charge_ns = Micro.charge_ns ~bytes:mean_size in
  let switch_ns = Micro.switch_ns () in
  let kib = float_of_int dc.Micro.bytes /. 1024. in
  (* the ledger, nanoseconds per step *)
  let t_traced = mean_step pk in
  let s_kamping = span_ns_per_step pk [ "kamping" ] in
  let s_raw = span_ns_per_step prt [ "coll"; "p2p"; "plugins" ] in
  let datatype = msgs_per_step *. (dc.Micro.pack_ns +. dc.Micro.unpack_ns) in
  let wire = msgs_per_step *. dc.Micro.wire_ns in
  let mailbox = msgs_per_step *. match_ns in
  let net = msgs_per_step *. charge_ns in
  let scheduler = switches_per_step *. switch_ns in
  let lower = datatype +. wire +. mailbox +. net +. scheduler in
  let kamping_self = s_kamping -. span_ns_per_step prt [ "coll"; "p2p" ] in
  let coll_p2p_self = s_raw -. lower in
  let app = all_span_ns_per_step pk [ "app" ] in
  let residual = t_traced -. (kamping_self +. coll_p2p_self +. lower +. app) in
  let coll_spans, coll_span_ns =
    List.fold_left
      (fun (c, ns) b ->
        let c', ns' = span_layer b [ "coll" ] in
        (c + c', ns + ns'))
      (0, 0) prt.span_batches
  in
  let plugin_ns = span_ns_per_step pk [ "plugins" ] in
  let overhead_ref = if has wl Explicit then peel_of peel_batches (Explicit, false) else pu in
  let pool_hits = float_of_int (d.after.pool_hits - d.before.pool_hits)
  and pool_misses = float_of_int (d.after.pool_misses - d.before.pool_misses) in
  let blocked = d.after.blocked -. d.before.blocked and busy = d.after.busy -. d.before.busy in
  let metrics =
    [
      m "kamping.calls_per_step" "count" kamping_calls_per_step;
      m "kamping.self_ns_per_call" "ns" (ratio kamping_self kamping_calls_per_step);
      m "kamping.overhead_pct" "%" (paired_overhead_pct overhead_ref pr);
      m "kamping.named_overhead_pct" "%"
        (if has wl Named then paired_overhead_pct (peel_of peel_batches (Named, false)) pr else 0.);
      m "kamping.inferred_overhead_pct" "%"
        (if has wl Explicit then paired_overhead_pct pu pr else 0.);
      m "kamping.extra_calls_per_call" "count" (ratio extra_calls kamping_calls_all);
      m "kamping.alloc_words_per_call" "words" (ratio (wk.words -. wr.words) kamping_calls_all);
      m "plugins.sparse_alltoall.calls_per_step" "count"
        (float_of_int (calls wk.prof "sparse_alltoallv") /. kf /. ranks);
      m "plugins.sparse_alltoall.ns_per_call" "ns"
        (ratio plugin_ns (float_of_int plugin_calls_rank0 /. kf));
      m "plugins.sparse_alltoall.iprobes_per_msg" "count" (ratio iprobes issends);
      m "coll.ns_per_call" "ns" (ratio (float_of_int coll_span_ns) (float_of_int coll_spans));
      m "coll.msgs_per_call" "count" (ratio (wr_sent -. float_of_int user_msgs) coll_calls_all);
      m "coll.bytes_per_call" "B" (ratio (wr_bytes -. float_of_int user_bytes) coll_calls_all);
      m "coll.alloc_words_per_call" "words" (ratio wr.words coll_calls_all);
      m "p2p.ns_per_msg" "ns" (ratio coll_p2p_self msgs_per_step);
      m "p2p.calls_per_step" "count"
        (float_of_int (sum_calls wk.prof (fun o -> List.mem o p2p_ops)) /. kf);
      m "p2p.alloc_words_per_msg" "words" (ratio wr.words wr_sent);
      m "datatype.pack_ns_per_kib" "ns/KiB" (ratio dc.Micro.pack_ns kib);
      m "datatype.unpack_ns_per_kib" "ns/KiB" (ratio dc.Micro.unpack_ns kib);
      m "datatype.bulk_speedup_4k" "x" (Micro.bulk_speedup wl.payload ~bytes:4096);
      m "datatype.bulk_speedup_ws" "x" (Micro.bulk_speedup wl.payload ~bytes:mean_size);
      m "datatype.bulk_byte_share" "ratio" (bulk_byte_share wl wk.prof);
      m "wire.pool_hit_ratio" "ratio" (ratio pool_hits (pool_hits +. pool_misses));
      m "wire.acquire_recycle_ns" "ns" dc.Micro.wire_ns;
      m "wire.bytes_per_step" "B" bytes_per_step;
      m "mailbox.unexpected_share" "ratio" unexpected_share;
      m "mailbox.unexpected_depth_mean" "count" depth_mean;
      m "mailbox.unexpected_depth_max" "count" (depth_max d);
      m "mailbox.match_ns" "ns" match_ns;
      m "scheduler.switch_ns" "ns" switch_ns;
      m "scheduler.parks_per_step" "count" (wp.parks /. kf);
      m "scheduler.park_wait_us_mean" "us" (ratio wp.park_s wp.parks *. 1e6);
      m "runtime.msgs_per_step" "count" msgs_per_step;
      m "runtime.blocked_share" "ratio" (ratio blocked (blocked +. busy));
      m "net_model.charge_ns" "ns" charge_ns;
      m "gc.minor_collections_per_step" "count" (wk.minor_gcs /. kf);
      m "gc.major_collections_per_step" "count" (wk.major_gcs /. kf);
      m "gc.promoted_words_per_step" "words" (wk.promoted /. kf);
      m "ledger.step_ns" "ns" t_traced;
      m "ledger.kamping_ns" "ns" kamping_self;
      m "ledger.coll_p2p_ns" "ns" coll_p2p_self;
      m "ledger.datatype_ns" "ns" datatype;
      m "ledger.wire_ns" "ns" wire;
      m "ledger.mailbox_ns" "ns" mailbox;
      m "ledger.scheduler_ns" "ns" scheduler;
      m "ledger.net_model_ns" "ns" net;
      m "ledger.app_ns" "ns" app;
      m "ledger.residual_pct" "%" (100. *. ratio residual t_traced);
      m "trace.overhead_pct" "%" (100. *. (ratio (quantile pk.all 0.5) (quantile pu.all 0.5) -. 1.));
    ]
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" wl.name !seed) in
  Spans.write ~path
    ~header:
      (Printf.sprintf "{\"workload\": \"%s\", \"seed\": %d, \"revision\": \"%s\"}" wl.name !seed
         !revision);
  info "spans written to %s (%d kept, %d dropped)" path !Spans.kept !Spans.dropped;
  info
    "ledger ns/step: traced %.0f = kamping %.0f + coll/p2p %.0f + datatype %.0f + wire %.0f + \
     mailbox %.0f + scheduler %.0f + net_model %.0f + app %.0f + residual %.0f"
    t_traced kamping_self coll_p2p_self datatype wire mailbox scheduler net app residual;
  let runs = [ counts; hooked; timing ] in
  ( calls_ok,
    List.fold_left (fun a (o : outcome) -> a + o.attempted) 0 runs,
    List.fold_left (fun a (o : outcome) -> a + o.failed) 0 runs,
    metrics )

let () =
  let spec =
    [
      ("--workload", Arg.Set_string workload_name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--revision", Arg.Set_string revision, "REV source revision to print");
    ]
  in
  Arg.parse spec (fun _ -> usage ()) "simbench";
  let wl =
    match List.find_opt (fun (w : workload) -> w.name = !workload_name) Workloads.all with
    | Some w -> w
    | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  let env v = Option.value (Sys.getenv_opt v) ~default:"(unset)" in
  info "workload=%s seed=%d seconds=%g trace=%d revision=%s" wl.name !seed !seconds !trace
    !revision;
  info "environment seen: MPISIM_DOMAINS=%s MPISIM_CHECK=%s MPISIM_LOOKAHEAD=%s"
    (env "MPISIM_DOMAINS") (env "MPISIM_CHECK") (env "MPISIM_LOOKAHEAD");
  info "pinned: domains=1 check_level=off assertion_level=1 clock=virtual_only model=%s"
    Net_model.omnipath.Net_model.name;
  match
    if !trace = 0 then
      let o, metrics = end_to_end wl in
      (true, o.attempted, o.failed, metrics)
    else per_layer wl
  with
  | calls_ok, attempted, failed, metrics ->
      let correct = calls_ok && failed = 0 && attempted > 0 in
      info "fail_ratio=%s (%d of %d steps failed)"
        (json_number (per (float_of_int failed) attempted))
        failed attempted;
      print_result ~correct ~attempted ~failed metrics;
      exit (if correct then 0 else 1)
  | exception e ->
      (* An escaped exception (a deadlock, an abort in set-up) fails the
         whole run loudly. *)
      Printf.eprintf "simbench: run aborted: %s\n%!" (Printexc.to_string e);
      print_result ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
