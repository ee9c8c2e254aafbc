(* Command-line driver for running individual experiments at arbitrary
   scale (the benchmark harness `bench/main.exe` runs everything at
   scaled-down defaults; this tool is for full-size single runs).

     kamping-repro sort    --ranks 64 --per-rank 1000000
     kamping-repro bfs     --ranks 256 --family rhg --exchanger kamping_grid
     kamping-repro suffix  --ranks 16 --length 65536
     kamping-repro phylo   --ranks 48 --iterations 500
     kamping-repro repro-reduce --ranks 64 --elements 100000 *)

open Cmdliner
open Mpisim

let ranks_arg =
  Arg.(value & opt int 16 & info [ "ranks"; "p" ] ~docv:"P" ~doc:"Number of simulated ranks.")

let model_arg =
  let model_conv =
    Arg.enum [ ("omnipath", Net_model.omnipath); ("ethernet", Net_model.ethernet) ]
  in
  Arg.(value & opt model_conv Net_model.omnipath & info [ "model" ] ~doc:"Network cost model.")

let report_line (r : Engine.report) =
  Printf.printf "ranks=%d simulated_time=%s\n" r.Engine.ranks
    (Sim_time.to_string r.Engine.max_time)

(* --- observability flags, shared by every subcommand --- *)

type obs = {
  trace_file : string option;
  trace_stream : string option;
  comm_matrix : string option;
  stats : bool;
  check : Check.level option;
  chaos : Chaos.config option;
  coll_algo : Coll_algo.spec option;
}

let obs_arg =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record an event trace and write it as Chrome trace-event JSON to \
             $(docv) (loadable in chrome://tracing or ui.perfetto.dev).")
  in
  let trace_stream =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-stream" ] ~docv:"FILE"
          ~doc:
            "Stream every trace event incrementally to $(docv) as length-prefixed \
             binary records (no in-memory rings, nothing dropped; memory stays O(1) \
             per idle rank at any scale).  Convert offline with $(b,trace-convert).  \
             The capture is the run's trace record: $(b,--trace) writes its JSON \
             from it and $(b,--stats) reads its critical path from it.")
  in
  let comm_matrix =
    Arg.(
      value
      & opt (some string) None
      & info [ "comm-matrix" ] ~docv:"FILE"
          ~doc:
            "Record the per-(source, destination) communication matrix — messages \
             and bytes, attributed to the collective algorithm running at send \
             time — and write it to $(docv) (JSON if $(docv) ends in .json, else \
             CSV).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the per-rank busy/blocked/idle breakdown, message-size and \
             latency histograms, and the critical path bounding the makespan.")
  in
  let check =
    let levels =
      [ ("off", Check.Off); ("light", Check.Light); ("heavy", Check.Heavy) ]
    in
    Arg.(
      value
      & opt (some (enum levels)) None
      & info [ "check" ] ~docv:"LEVEL"
          ~doc:
            "Run the correctness sanitizer at $(docv) (off, light or heavy): \
             collective call-order consistency, request-lifecycle and deadlock \
             diagnosis at $(b,light); plus send-buffer integrity and \
             wildcard-race detection at $(b,heavy).  Defaults to the \
             $(b,MPISIM_CHECK) environment variable, else off.")
  in
  let chaos =
    let chaos_conv =
      ( (fun s ->
          match Chaos.config_of_string s with
          | Ok c -> `Ok c
          | Error msg -> `Error msg),
        fun ppf c -> Format.pp_print_string ppf (Chaos.config_to_string c) )
    in
    Arg.(
      value
      & opt (some chaos_conv) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Run under the fault-injection plane.  $(docv) is either a bare \
             integer (shorthand for $(b,seed=N;lossy): seeded lossy network) \
             or ';'-separated clauses: $(b,seed=N), $(b,lossy), $(b,drop=F), \
             $(b,dup=F), $(b,reorder=F), $(b,corrupt=F), $(b,jitter=F), \
             $(b,retries=N), $(b,rto=F), $(b,backoff=F), $(b,jitter_cap=F), \
             $(b,link=A>B:drop=F,...), $(b,fail=R@ops:K), $(b,fail=R@t:T), \
             $(b,fail=R@task:K), $(b,droplink=A>B@N), \
             $(b,partition=R,S@T1-T2).  The run prints a replay line; the \
             same spec reproduces the same faults byte for byte.")
  in
  let coll_algo =
    let spec_conv =
      ( (fun s ->
          match Coll_algo.parse_spec s with Ok sp -> `Ok sp | Error msg -> `Error msg),
        fun ppf (sp : Coll_algo.spec) ->
          Format.pp_print_string ppf
            (String.concat ","
               (List.map
                  (fun (o, a) ->
                    Coll_algo.op_name o ^ "="
                    ^ match a with Some a -> Coll_algo.algo_name a | None -> "auto")
                  sp)) )
    in
    Arg.(
      value
      & opt (some spec_conv) None
      & info [ "coll-algo" ] ~docv:"SPEC"
          ~doc:
            "Pin collective algorithms instead of the automatic selection, \
             which runs the cheapest under the network model.  $(docv) is a \
             ','-separated list of $(b,op=alg), e.g. \
             $(b,allreduce=rabenseifner,allgather=ring); $(b,alg) may be \
             $(b,auto).  Ops: allreduce (reduce_bcast, recursive_doubling, \
             rabenseifner), allgather (bruck, ring), bcast (binomial, \
             scatter_allgather), reduce_scatter (reduce_scatterv, pairwise).  \
             The chosen algorithm per call is visible in the \
             $(b,coll.algo.*) counters of $(b,--stats) and as trace spans.  \
             The pins belong to this run's network model.")
  in
  Term.(
    const (fun trace_file trace_stream comm_matrix stats check chaos coll_algo ->
        { trace_file; trace_stream; comm_matrix; stats; check; chaos; coll_algo })
    $ trace_file $ trace_stream $ comm_matrix $ stats $ check $ chaos $ coll_algo)

(* Exit-status documentation shared by every subcommand; the codes
   themselves live in Mpisim.Exit_codes so tests and CI scripts have the
   same single source of truth as the CLI. *)
let exits =
  Cmd.Exit.info Exit_codes.ok ~doc:(Exit_codes.describe Exit_codes.ok)
  :: Cmd.Exit.info Exit_codes.violation ~doc:(Exit_codes.describe Exit_codes.violation)
  :: Cmd.Exit.info Exit_codes.file_error ~doc:(Exit_codes.describe Exit_codes.file_error)
  :: Cmd.Exit.info Exit_codes.clean_failure
       ~doc:(Exit_codes.describe Exit_codes.clean_failure)
  :: Cmd.Exit.defaults

(* Run one experiment body under the observability flags: tracing is
   enabled iff --trace, --trace-stream or --stats was given (--stats needs
   the event trace for the critical path), and the reports print after
   the run.  The stream, when given, takes the rings' place; the reports
   read whichever sink recorded the run.  Every --trace-stream capture
   carries the happens-before analyzer's instants, so it is analyzable
   offline with `analyze`. *)
let run_with_obs ~obs ~model ~ranks body =
  let trace_capacity =
    if obs.trace_file <> None || obs.stats then Some Trace.default_capacity else None
  in
  let model = Coll_algo.pin (Option.value obs.coll_algo ~default:[]) model in
  (match obs.chaos with
  | Some cfg ->
      Printf.printf "chaos: replay with --chaos '%s'\n%!" (Chaos.config_to_string cfg)
  | None -> ());
  let report =
    try
      Engine.run ~model ?check_level:obs.check ?chaos:obs.chaos ?trace_capacity
        ?trace_stream:obs.trace_stream
        ~comm_matrix:(obs.comm_matrix <> None)
        ~ranks body
    with
    | Scheduler.Aborted { rank; exn = Errdefs.Mpi_error { code; msg }; _ } ->
        (* A chaos run ending in a clean MPI error is a valid outcome; report
           it without an OCaml backtrace so the replay line above is usable. *)
        Printf.printf "rank %d failed cleanly: %s: %s\n" rank (Errdefs.code_name code)
          msg;
        exit Exit_codes.clean_failure
    | Errdefs.Mpi_error { code; msg } ->
        Printf.printf "run failed cleanly: %s: %s\n" (Errdefs.code_name code) msg;
        exit Exit_codes.clean_failure
    | Errdefs.Usage_error msg ->
        (* A spec that does not fit the run, e.g. a rank outside it. *)
        Printf.eprintf "kamping-repro: %s\n" msg;
        exit Cmd.Exit.cli_error
  in
  report_line report;
  (match (obs.chaos, report.Engine.chaos_log) with
  | Some _, Some log ->
      let count name = Stats.count (Stats.counter report.Engine.stats name) in
      Printf.printf
        "chaos: %d events (dropped=%d dup=%d reordered=%d corrupted=%d \
         retransmits=%d escalations=%d plan_failures=%d) killed=[%s]\n"
        (List.length (String.split_on_char '\n' log) - 1)
        (count "chaos.dropped") (count "chaos.duplicated") (count "chaos.reordered")
        (count "chaos.corrupted") (count "chaos.retransmits")
        (count "chaos.escalations") (count "chaos.plan_failures")
        (String.concat "," (List.map string_of_int report.Engine.killed))
  | _ -> ());
  (match obs.trace_stream with
  | Some file ->
      Printf.printf "trace stream written to %s (%d events, 0 dropped); convert with \
                     `kamping-repro trace-convert %s out.json`\n"
        file
        (Trace.stream_events report.Engine.trace)
        file
  | None -> ());
  (match obs.comm_matrix with
  | Some file -> (
      match Comm_matrix.write_file report.Engine.comm_matrix file with
      | () ->
          let msgs, bytes = Comm_matrix.totals report.Engine.comm_matrix in
          Printf.printf "communication matrix written to %s (%d messages, %d bytes)\n"
            file msgs bytes
      | exception Sys_error msg ->
          Printf.eprintf "kamping-repro: cannot write comm matrix: %s\n" msg;
          exit Exit_codes.file_error)
  | None -> ());
  (match obs.trace_file with
  | Some file -> (
      match Trace.write_chrome_file report.Engine.trace file with
      | Ok () ->
          let dropped = Trace.total_dropped report.Engine.trace in
          if dropped > 0 then
            Printf.printf "trace written to %s (%d oldest events dropped)\n" file
              dropped
          else Printf.printf "trace written to %s\n" file
      | Error msg ->
          Printf.eprintf "kamping-repro: cannot write trace: %s\n" msg;
          exit Exit_codes.file_error)
  | None -> ());
  if obs.stats then begin
    let ppf = Format.std_formatter in
    Format.fprintf ppf "@.-- utilization --@.";
    Trace_report.pp_utilization ppf ~busy:report.Engine.busy
      ~blocked:report.Engine.blocked ~times:report.Engine.times
      ~max_time:report.Engine.max_time;
    let histo name fmt title =
      let h = Stats.histogram report.Engine.stats name in
      if Stats.total h > 0 then begin
        Format.fprintf ppf "@.-- %s --@." title;
        Stats.pp_histogram ~fmt ppf h
      end
    in
    histo "msg_size_bytes" Stats.fmt_bytes "message size";
    histo "msg_latency_seconds" Stats.fmt_seconds "message latency (send to consume)";
    let algo_counts = ref [] in
    Stats.iter_counters report.Engine.stats (fun name c ->
        if
          String.length name > 10
          && String.sub name 0 10 = "coll.algo."
          && Stats.count c > 0
        then algo_counts := (name, Stats.count c) :: !algo_counts);
    if !algo_counts <> [] then begin
      Format.fprintf ppf "@.-- collective algorithms --@.";
      List.iter
        (fun (name, n) ->
          Format.fprintf ppf "%-45s %d calls@."
            (String.sub name 10 (String.length name - 10))
            n)
        (List.sort compare !algo_counts)
    end;
    Format.fprintf ppf "@.-- critical path --@.";
    Trace_report.pp_critical_path ppf report.Engine.trace ~times:report.Engine.times;
    (* Publish how much of the shown causal chain the trace could actually
       prove: nonzero unverified edges means the path crossed a send the
       ring buffer evicted or that failed consistency checks. *)
    let unverified =
      Trace_report.unverified_edges
        (Trace_report.critical_path report.Engine.trace ~times:report.Engine.times)
    in
    Stats.add
      (Stats.counter report.Engine.stats "obs.causal.unverified_edges")
      unverified;
    Format.fprintf ppf "obs.causal.unverified_edges: %d@." unverified;
    Format.pp_print_flush ppf ()
  end;
  report

(* --- sort --- *)

let sort_cmd =
  let per_rank =
    Arg.(value & opt int 100_000 & info [ "per-rank" ] ~doc:"Elements per rank.")
  in
  let run ranks per_rank model obs =
    ignore @@ run_with_obs ~obs ~model ~ranks (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let rng = Xoshiro.create ~seed:1 ~stream:(Comm.rank mpi) in
        let data = Array.init per_rank (fun _ -> Xoshiro.next_int rng ~bound:max_int) in
        let sorted = Kamping_plugins.Sorter.sort comm Datatype.int data in
        assert (Kamping_plugins.Sorter.is_globally_sorted comm Datatype.int sorted))
  in
  Cmd.v (Cmd.info "sort" ~exits ~doc:"Distributed sample sort (Fig. 7/8 workload).")
    Term.(const run $ ranks_arg $ per_rank $ model_arg $ obs_arg)

(* --- bfs --- *)

let bfs_cmd =
  let family =
    let family_conv = Arg.enum [ ("gnm", `Gnm); ("rgg", `Rgg); ("rhg", `Rhg) ] in
    Arg.(value & opt family_conv `Rgg & info [ "family" ] ~doc:"Graph family.")
  in
  let exchanger =
    let ex_conv =
      Arg.enum
        (List.map (fun e -> (Bfs.Exchangers.exchanger_name e, e)) Bfs.Exchangers.all)
    in
    Arg.(
      value
      & opt ex_conv Bfs.Exchangers.Kamping
      & info [ "exchanger" ] ~doc:"Frontier exchange strategy.")
  in
  let n_per_rank =
    Arg.(value & opt int 4096 & info [ "vertices-per-rank" ] ~doc:"Vertices per rank.")
  in
  let run ranks family exchanger n_per_rank model obs =
    ignore @@ run_with_obs ~obs ~model ~ranks (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let g =
          match family with
          | `Gnm ->
              Graphgen.Gnm.generate comm ~n_per_rank ~m_per_rank:(8 * n_per_rank) ~seed:1
          | `Rgg -> Graphgen.Rgg2d.generate comm ~n_per_rank ~seed:1 ()
          | `Rhg -> Graphgen.Rhg.generate comm ~n_per_rank ~seed:1 ()
        in
        ignore (Bfs.Exchangers.bfs mpi g ~source:0 ~exchanger))
  in
  Cmd.v (Cmd.info "bfs" ~exits ~doc:"Distributed BFS (Fig. 9/10 workload).")
    Term.(const run $ ranks_arg $ family $ exchanger $ n_per_rank $ model_arg $ obs_arg)

(* --- suffix --- *)

let suffix_cmd =
  let length = Arg.(value & opt int 65_536 & info [ "length" ] ~doc:"Total text length.") in
  let run ranks length model obs =
    ignore @@ run_with_obs ~obs ~model ~ranks (fun mpi ->
        let text =
          Suffix_array.Sa_common.random_text ~seed:2 ~alphabet:4 ~n:length ~p:ranks
            ~rank:(Comm.rank mpi)
        in
        ignore (Suffix_array.Sa_kamping.suffix_array mpi text))
  in
  Cmd.v
    (Cmd.info "suffix" ~exits ~doc:"Suffix array by prefix doubling (paper SIV-A workload).")
    Term.(const run $ ranks_arg $ length $ model_arg $ obs_arg)

(* --- phylo --- *)

let phylo_cmd =
  let iterations =
    Arg.(value & opt int 200 & info [ "iterations" ] ~doc:"Optimizer iterations.")
  in
  let run ranks iterations model obs =
    let score = ref 0. in
    ignore @@ run_with_obs ~obs ~model ~ranks (fun comm ->
        let s =
          Phylo.Workload.run Phylo.Workload.kamping comm ~sites_per_rank:1000 ~iterations
            ~n_branches:128 ~n_partitions:16
        in
        if Comm.rank comm = 0 then score := s);
    Printf.printf "final log-likelihood: %.6f\n" !score
  in
  Cmd.v (Cmd.info "phylo" ~exits ~doc:"Phylogenetic-inference workload (paper SIV-C).")
    Term.(const run $ ranks_arg $ iterations $ model_arg $ obs_arg)

(* --- repro-reduce --- *)

let repro_cmd =
  let elements =
    Arg.(value & opt int 100_000 & info [ "elements" ] ~doc:"Total array length.")
  in
  let run ranks elements model obs =
    let sum = ref 0. in
    ignore @@ run_with_obs ~obs ~model ~ranks (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let chunk = (elements + ranks - 1) / ranks in
        let lo = min elements (Comm.rank mpi * chunk) in
        let hi = min elements (lo + chunk) in
        let local = Array.init (hi - lo) (fun j -> cos (float_of_int (lo + j))) in
        let s = Kamping_plugins.Repro_reduce.sum comm local in
        if Comm.rank mpi = 0 then sum := s);
    Printf.printf "reproducible sum: %.17g (bits %Lx)\n" !sum (Int64.bits_of_float !sum)
  in
  Cmd.v
    (Cmd.info "repro-reduce" ~exits ~doc:"Reproducible reduction (paper SV-C, Fig. 13).")
    Term.(const run $ ranks_arg $ elements $ model_arg $ obs_arg)

(* --- taskqueue --- *)

let taskqueue_cmd =
  let module TQ = Kamping_plugins.Taskqueue in
  let tasks_arg =
    Arg.(value & opt int 200 & info [ "tasks" ] ~docv:"N" ~doc:"Number of tasks to farm.")
  in
  let mode_arg =
    let mode_conv =
      ( (fun s -> match TQ.mode_of_string s with Ok m -> `Ok m | Error e -> `Error e),
        fun ppf m -> Format.pp_print_string ppf (TQ.mode_to_string m) )
    in
    Arg.(
      value
      & opt mode_conv TQ.Master_worker
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Scheduling mode: $(b,master) (pull-based master/worker with leases, \
             re-dispatch and checkpointed drain) or $(b,nbx) (decentralized \
             bulk-synchronous work stealing over the sparse NBX all-to-all).")
  in
  let lease_arg =
    Arg.(
      value & opt float 2e-3
      & info [ "lease-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Virtual-time lease per dispatched task (master mode); a straggler \
             overrunning it is re-dispatched with exponential backoff.")
  in
  let rate_arg =
    Arg.(
      value & opt float infinity
      & info [ "rate" ] ~docv:"TASKS/S"
          ~doc:"Token-bucket dispatch rate limit (virtual time); default unlimited.")
  in
  let batch_arg =
    Arg.(
      value & opt int 4
      & info [ "batch" ] ~docv:"N" ~doc:"Tasks executed per NBX round before rebalancing.")
  in
  let ckpt_arg =
    Arg.(
      value & opt int 16
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Master replicates newly recorded results to its successor every \
             $(docv) completions, so a master death loses no recorded work.")
  in
  let run ranks tasks mode lease rate batch ckpt model obs =
    let n = tasks in
    let cfg =
      TQ.config ~mode ~lease_timeout:lease ~rate ~batch ~checkpoint_every:ckpt ()
    in
    let payloads = Array.init n (fun i -> 1000 + i) in
    let expected = Array.init n (fun i -> (payloads.(i) * payloads.(i)) + i) in
    (* Per-world-rank verdicts, filled in by the fibers. *)
    let verdicts = Array.make ranks None in
    let report =
      run_with_obs ~obs ~model ~ranks (fun mpi ->
          let comm = Kamping.Communicator.of_mpi mpi in
          let rt = Comm.runtime mpi in
          let me = Comm.rank mpi in
          let exec id payload =
            (* Heterogeneous modelled compute: stragglers exist even
               without chaos. *)
            Runtime.charge_compute rt me
              (2e-5
              *. float_of_int (1 + Xoshiro.hash_int ~seed:7 ~stream:0 ~counter:id ~bound:40)
              );
            (payload * payload) + id
          in
          try
            let out, _comm' =
              TQ.run ~cfg comm ~task_codec:Serial.Codec.int ~result_codec:Serial.Codec.int
                ~tasks:payloads ~exec ()
            in
            verdicts.(me) <- Some (out = expected)
          with Kamping_plugins.Ulfm.Failure_detected msg ->
            Errdefs.mpi_error (Errdefs.Err_other "RECOVERY_EXHAUSTED") "%s" msg)
    in
    let count name = Stats.count (Stats.counter report.Engine.stats name) in
    Printf.printf
      "taskqueue: mode=%s tasks=%d dispatched=%d completed=%d redispatched=%d \
       duplicates_suppressed=%d leases_expired=%d throttled=%d checkpoints=%d steals=%d\n"
      (TQ.mode_to_string mode) n
      (count "taskqueue.dispatched")
      (count "taskqueue.completed")
      (count "taskqueue.redispatched")
      (count "taskqueue.duplicates_suppressed")
      (count "taskqueue.leases_expired")
      (count "taskqueue.throttled")
      (count "taskqueue.checkpoints")
      (count "taskqueue.steals");
    (* Exactly-once verification: every surviving rank must hold the full,
       correct result vector. *)
    let ok = ref true in
    for r = 0 to ranks - 1 do
      if not (List.mem r report.Engine.killed) then
        match verdicts.(r) with
        | Some true -> ()
        | Some false ->
            ok := false;
            Printf.eprintf "kamping-repro: taskqueue: rank %d has wrong results\n" r
        | None ->
            ok := false;
            Printf.eprintf "kamping-repro: taskqueue: rank %d produced no results\n" r
    done;
    if !ok then Printf.printf "exactly-once verified on %d survivor(s)\n"
        (ranks - List.length report.Engine.killed)
    else exit Exit_codes.violation
  in
  Cmd.v
    (Cmd.info "taskqueue" ~exits
       ~doc:
         "Farm heterogeneous tasks through the elastic fault-tolerant task-queue \
          plugin and verify exactly-once results on every survivor.  Combine \
          with $(b,--chaos) (e.g. $(b,'fail=2@ops:50') or \
          $(b,'fail=1@task:3;lossy')) to exercise straggler re-dispatch, \
          duplicate suppression and master re-election under rank death.")
    Term.(
      const run $ ranks_arg $ tasks_arg $ mode_arg $ lease_arg $ rate_arg $ batch_arg
      $ ckpt_arg $ model_arg $ obs_arg)

(* --- trace-convert --- *)

let trace_convert_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IN" ~doc:"Binary trace stream written by --trace-stream.")
  in
  let dst =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Chrome trace-event JSON output file.")
  in
  let run src dst =
    match Trace_chrome.convert ~src ~dst with
    | Ok s ->
        Printf.printf "%s: %d ranks, %d events -> %s\n" src s.Trace_stream.s_ranks
          s.Trace_stream.s_events dst
    | Error msg ->
        Printf.eprintf "kamping-repro: trace-convert: %s\n" msg;
        exit Exit_codes.file_error
  in
  Cmd.v
    (Cmd.info "trace-convert" ~exits
       ~doc:
         "Convert a --trace-stream binary capture to Chrome trace-event JSON \
          (chrome://tracing, ui.perfetto.dev), validating that no events are \
          missing.")
    Term.(const run $ src $ dst)

(* --- bench-diff --- *)

let bench_diff_cmd =
  let baseline =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline JSON Lines benchmark file.")
  in
  let current =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Current JSON Lines benchmark file.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.10
      & info [ "tolerance" ] ~docv:"F"
          ~doc:"Relative tolerance before a change counts as a regression.")
  in
  let include_wall =
    Arg.(
      value & flag
      & info [ "include-wall" ]
          ~doc:
            "Also compare wall-clock metrics (machine-dependent; skipped by \
             default so the gate only sees deterministic modelled numbers).")
  in
  let run baseline current tolerance include_wall =
    let load path =
      match Bench_compare.load path with
      | Ok records -> records
      | Error msg ->
          Printf.eprintf "kamping-repro: bench-diff: %s\n" msg;
          exit Exit_codes.file_error
    in
    let old_records = load baseline in
    let new_records = load current in
    let verdict =
      Bench_compare.diff ~tolerance ~include_wall ~baseline:old_records
        ~current:new_records ()
    in
    Format.printf "%a@?" Bench_compare.pp_verdict verdict;
    if Bench_compare.has_regressions verdict then exit Exit_codes.violation
  in
  Cmd.v
    (Cmd.info "bench-diff" ~exits
       ~doc:
         "Compare two benchmark JSON Lines files (e.g. a committed \
          bench/history baseline against a fresh BENCH_COLL.json) and exit \
          nonzero if any metric regressed beyond the tolerance.")
    Term.(const run $ baseline $ current $ tolerance $ include_wall)

(* --- analyze: offline happens-before race analysis of a trace stream --- *)

let analyze_cmd =
  let src =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Binary trace stream written by --trace-stream (every such capture \
             is analyzable; the vector clocks are derived from its send and \
             match events).")
  in
  let eager_threshold =
    Arg.(
      value
      & opt int Hb.default_eager_threshold
      & info [ "eager-threshold" ] ~docv:"BYTES"
          ~doc:
            "Sends of at least $(docv) bytes are treated as \
             rendezvous-protocol candidates for buffer-reuse windows.")
  in
  let include_internal =
    Arg.(
      value & flag
      & info [ "include-internal" ]
          ~doc:
            "Also report findings on internal-tag protocol messages \
             (collective lowerings, NBX); off by default because their \
             nondeterminism is resolved by the algorithms themselves.")
  in
  let run src eager_threshold include_internal =
    match Hb.analyze ~eager_threshold ~include_internal src with
    | Error msg ->
        Printf.eprintf "kamping-repro: analyze: %s\n" msg;
        exit Exit_codes.file_error
    | Ok r ->
        Printf.printf
          "%s: %d ranks, %d events, %d sends, %d matches, %d wildcard receives, %d \
           vector clocks\n"
          src r.Hb.ranks r.Hb.events r.Hb.sends r.Hb.matches r.Hb.wildcard_posts
          r.Hb.vcs;
        if r.Hb.findings = [] then begin
          Printf.printf "no races found\n";
          exit Exit_codes.ok
        end
        else begin
          Report.print_findings Format.std_formatter r.Hb.findings;
          Printf.printf "%d finding(s): %s\n"
            (List.length r.Hb.findings)
            (String.concat ", " (Report.classes r.Hb.findings));
          exit Exit_codes.violation
        end
  in
  Cmd.v
    (Cmd.info "analyze" ~exits
       ~doc:
         "Offline happens-before analysis of a --trace-stream capture: report \
          wildcard-receive races (concurrent alternative senders, with \
          vector-clock witnesses derived offline from the capture's send and \
          match events), non-commutative reduction-order exposure \
          and unsafe send-buffer reuse windows.  Findings carry the message \
          sequence number used by the Chrome-trace flow arrows, so each one \
          can be located visually after $(b,trace-convert).  Exits 1 if any \
          finding is reported.")
    Term.(
      const run $ src $ eager_threshold $ include_internal)

(* --- verify: bounded schedule-space model checking --- *)

let prog_name_arg =
  let all = String.concat ", " (Progs.names ()) in
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROG" ~doc:(Printf.sprintf "Verification program (one of: %s)." all))

let lookup_prog name =
  match Progs.find name with
  | Some p -> p
  | None ->
      Printf.eprintf "kamping-repro: unknown program %S (have: %s)\n" name
        (String.concat ", " (Progs.names ()));
      exit Cmd.Exit.cli_error

let verify_cmd =
  let ranks =
    Arg.(
      value
      & opt (some int) None
      & info [ "ranks"; "p" ] ~docv:"P"
          ~doc:"Simulated ranks (default: the program's smallest interesting size).")
  in
  let max_schedules =
    Arg.(
      value
      & opt int Explore.default_max_schedules
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Bound on distinct schedules to execute before giving up.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SCRIPT"
          ~doc:
            "Replay one decision script (comma-separated choice indices, as \
             printed in a violation witness) instead of exploring, and report \
             what that single schedule exhibits.")
  in
  let run name ranks max_schedules replay =
    let p = lookup_prog name in
    let ranks = match ranks with Some r -> r | None -> p.Progs.ranks_hint in
    match replay with
    | Some script_s -> (
        match Choice.script_of_string script_s with
        | Error msg ->
            Printf.eprintf "kamping-repro: verify: bad --replay script: %s\n" msg;
            exit Cmd.Exit.cli_error
        | Ok script ->
            let ((outcome, decisions, _) as run) =
              Explore.replay ~ranks ~script p.Progs.body
            in
            let cls = Explore.replay_class run in
            Printf.printf "replayed %d decision(s): %s\n" (List.length decisions)
              (Choice.script_to_string
                 (List.map (fun (d : Choice.decision) -> d.Choice.d_chosen) decisions));
            (match outcome with
            | Explore.Completed -> ()
            | Explore.Violated { detail; _ } -> Printf.printf "%s\n" detail);
            Printf.printf "schedule class: %s\n" cls;
            exit (if cls = "ok" then Exit_codes.ok else Exit_codes.violation))
    | None ->
        Printf.printf "verifying %s at p=%d (%s)\n" p.Progs.name ranks p.Progs.doc;
        let r = Explore.explore ~max_schedules ~ranks p.Progs.body in
        Format.printf "%a@?" Explore.pp_result r;
        exit
          (if r.Explore.violations <> [] then Exit_codes.violation else Exit_codes.ok)
  in
  Cmd.v
    (Cmd.info "verify" ~exits
       ~doc:
         "Bounded schedule-space model checking of a named program: every \
          wildcard match choice becomes an explicit decision point, all \
          non-equivalent interleavings are executed under the heavy sanitizer \
          (non-overtaking-pruned, breadth-first), and the run either certifies \
          deadlock-freedom and match-determinism or prints one minimal \
          replayable decision trace per violation class.  Exits 1 on any \
          violation.")
    Term.(
      const run $ prog_name_arg $ ranks $ max_schedules $ replay)

(* --- prog: run one named verification program under the obs flags --- *)

let prog_cmd =
  let ranks =
    Arg.(
      value
      & opt (some int) None
      & info [ "ranks"; "p" ] ~docv:"P"
          ~doc:"Simulated ranks (default: the program's smallest interesting size).")
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List the available programs and exit.")
  in
  let opt_name =
    let all = String.concat ", " (Progs.names ()) in
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROG"
          ~doc:(Printf.sprintf "Verification program (one of: %s)." all))
  in
  let run_progs name ranks list model obs =
    if list then begin
      List.iter
        (fun p ->
          Printf.printf "%-15s (p>=%d)  %s\n" p.Progs.name p.Progs.ranks_hint
            p.Progs.doc)
        Progs.all;
      exit Exit_codes.ok
    end;
    let name =
      match name with
      | Some n -> n
      | None ->
          Printf.eprintf "kamping-repro: prog: missing PROG (or use --list)\n";
          exit Cmd.Exit.cli_error
    in
    let p = lookup_prog name in
    let ranks = match ranks with Some r -> r | None -> p.Progs.ranks_hint in
    let report = run_with_obs ~obs ~model ~ranks p.Progs.body in
    (* Print the sanitizer counters so a single instrumented run can be
       compared against what `analyze` finds offline (the hidden_race
       program is the demo: check.wildcard_race stays 0 here while the
       analyzer proves the race from vector clocks). *)
    if obs.check <> None then begin
      let stats = report.Engine.stats in
      (* Always show the race counter, even at zero — the hidden_race demo
         is exactly the comparison of this zero against `analyze`. *)
      Printf.printf "check.wildcard_race=%d\n"
        (Stats.count (Stats.counter stats "check.wildcard_race"));
      Stats.iter_counters stats (fun cname c ->
          if
            cname <> "check.wildcard_race"
            && String.length cname >= 6
            && String.sub cname 0 6 = "check."
          then Printf.printf "%s=%d\n" cname (Stats.count c))
    end
  in
  Cmd.v
    (Cmd.info "prog" ~exits
       ~doc:
         "Run one named verification program once, deterministically, under \
          the usual observability flags (--check, --trace-stream, --stats, \
          ...), printing the check.* counters when the sanitizer is on.  Use \
          together with $(b,analyze) and $(b,verify): a single instrumented \
          run shows what the runtime sanitizer can see; the offline analyzer \
          and the model checker show what it cannot.")
    Term.(const run_progs $ opt_name $ ranks $ list $ model_arg $ obs_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "kamping-repro" ~version:"1.0"
      ~doc:"Run kamping-ocaml paper experiments at full scale."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            sort_cmd;
            bfs_cmd;
            suffix_cmd;
            phylo_cmd;
            repro_cmd;
            taskqueue_cmd;
            trace_convert_cmd;
            bench_diff_cmd;
            analyze_cmd;
            verify_cmd;
            prog_cmd;
          ]))
