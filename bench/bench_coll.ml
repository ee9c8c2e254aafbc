(* Collective-algorithm engine benchmark (ISSUE 5 acceptance).

   Modelled time (simulated makespan under the OmniPath model, virtual
   clock) of each collective under each of its algorithms, swept over
   message size and communicator size.  The runs are deterministic, so a
   single call per configuration is an exact measurement of the cost
   model — this compares algorithms, not wall-clock noise.

   Smoke gates (CI):
   - every swept cell: the automatic choice, the cost model's argmin, is
     within 2% of the fastest pinned algorithm's modelled time;
   - large-message allreduce: the automatic choice (Rabenseifner) must
     beat the seed reduce+bcast lowering by >= 1.5x in modelled time;
   - reduce_scatter: the pairwise algorithm's peak per-rank scratch must
     stay O(n/p) while the reference lowering materializes the full O(n)
     vector (i.e. O(p * n/p)) at the root. *)

open Mpisim

let results_file = "BENCH_COLL.json"

(* One run with [op] pinned to [algo] in its model; [None] selects
   automatically.  The pin belongs to the run, so it cannot leak into
   later measurements. *)
let simulate ~op ~algo ~ranks body =
  Engine.run
    ~model:(Coll_algo.pin [ (op, algo) ] Net_model.omnipath)
    ~clock_mode:Runtime.Virtual_only ~ranks body

let modelled_time ~op ~algo ~ranks body = (simulate ~op ~algo ~ranks body).Engine.max_time

let emit ~coll ~algo ~ranks ~elems ~bytes ~seconds =
  Bench_util.emit_json_file ~file:results_file ~bench:"coll_algo"
    [
      ("coll", Bench_util.S coll);
      ("algo", Bench_util.S algo);
      ("ranks", Bench_util.I ranks);
      ("elems", Bench_util.I elems);
      ("bytes", Bench_util.I bytes);
      ("modelled_seconds", Bench_util.F seconds);
    ]

let fmt_time t = Printf.sprintf "%.1fus" (t *. 1e6)

(* Swept cells where the automatic choice is more than 2% slower than the
   fastest pinned algorithm, and the number of cells swept. *)
let auto_losses = ref []

let swept = ref 0

(* One table per collective: rows are (p, elems), one column per pinned
   algorithm plus the automatic choice. *)
let sweep ~coll ~op ~algos ~configs ~(body : elems:int -> Comm.t -> unit) =
  Printf.printf "\n-- %s: modelled time per algorithm --\n" coll;
  Bench_util.print_table
    ~header:([ "p"; "elems" ] @ List.map Coll_algo.algo_name algos @ [ "auto" ])
    (List.map
       (fun (ranks, elems) ->
         let time algo label =
           let t = modelled_time ~op ~algo ~ranks (body ~elems) in
           emit ~coll ~algo:label ~ranks ~elems ~bytes:(elems * 8) ~seconds:t;
           t
         in
         let pinned = List.map (fun a -> time (Some a) (Coll_algo.algo_name a)) algos in
         let auto = time None "auto" in
         incr swept;
         if auto > 1.02 *. List.fold_left Float.min infinity pinned then
           auto_losses :=
             Printf.sprintf "%s p=%d elems=%d" coll ranks elems :: !auto_losses;
         [ string_of_int ranks; string_of_int elems ]
         @ List.map fmt_time (pinned @ [ auto ]))
       configs)

let gate_failures = ref []

let gate name ok detail =
  Printf.printf "gate %-38s %s  (%s)\n" name (if ok then "PASS" else "FAIL") detail;
  if not ok then gate_failures := name :: !gate_failures

let allreduce_gate () =
  let ranks = 16 and elems = 65_536 in
  let body ~elems comm =
    let data = Array.init elems (fun i -> i + Comm.rank comm) in
    ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum data)
  in
  let t_seed =
    modelled_time ~op:Coll_algo.Allreduce ~algo:(Some Coll_algo.Reduce_bcast) ~ranks
      (body ~elems)
  in
  let auto_report =
    simulate ~op:Coll_algo.Allreduce ~algo:None ~ranks (body ~elems)
  in
  let t_auto = auto_report.Engine.max_time in
  let rabenseifner_calls =
    Stats.count
      (Stats.counter auto_report.Engine.stats
         (Coll_algo.counter_name Coll_algo.Allreduce Coll_algo.Rabenseifner))
  in
  gate "allreduce auto picks rabenseifner" (rabenseifner_calls = ranks)
    (Printf.sprintf "%d/%d calls counted" rabenseifner_calls ranks);
  let speedup = t_seed /. t_auto in
  Bench_util.emit_json_file ~file:results_file ~bench:"coll_gate"
    [
      ("gate", Bench_util.S "allreduce_speedup");
      ("ranks", Bench_util.I ranks);
      ("elems", Bench_util.I elems);
      ("seed_seconds", Bench_util.F t_seed);
      ("auto_seconds", Bench_util.F t_auto);
      ("speedup", Bench_util.F speedup);
    ];
  gate "allreduce >= 1.5x over reduce+bcast" (speedup >= 1.5)
    (Printf.sprintf "%.2fx (%s -> %s, p=%d, %d ints)" speedup (fmt_time t_seed)
       (fmt_time t_auto) ranks elems)

let reduce_scatter_gate () =
  let ranks = 16 and total = 65_536 in
  let body comm =
    let data = Array.init total (fun i -> i) in
    ignore (Coll.reduce_scatter_block comm Datatype.int Reduce_op.int_sum data)
  in
  let peak variant =
    let report = simulate ~op:Coll_algo.Reduce_scatter ~algo:(Some variant) ~ranks body in
    int_of_float
      (Stats.value (Stats.gauge report.Engine.stats "coll.reduce_scatter.peak_scratch_elems"))
  in
  let peak_pairwise = peak Coll_algo.Pairwise in
  let peak_reference = peak Coll_algo.Reduce_scatterv in
  Bench_util.emit_json_file ~file:results_file ~bench:"coll_gate"
    [
      ("gate", Bench_util.S "reduce_scatter_scratch");
      ("ranks", Bench_util.I ranks);
      ("elems", Bench_util.I total);
      ("pairwise_peak_elems", Bench_util.I peak_pairwise);
      ("reference_peak_elems", Bench_util.I peak_reference);
    ];
  gate "reduce_scatter pairwise scratch O(n/p)"
    (peak_pairwise <= 4 * (total / ranks) && peak_reference >= total)
    (Printf.sprintf "pairwise peak %d elems vs reference %d (n=%d, p=%d)" peak_pairwise
       peak_reference total ranks)

let run ?(smoke = false) () =
  Bench_util.section "Collective-algorithm engine: modelled time by algorithm (ISSUE 5)";
  let ps = if smoke then [ 4; 16 ] else [ 4; 16; 64 ] in
  let allreduce_sizes = if smoke then [ 256; 65_536 ] else [ 64; 2_048; 65_536; 262_144 ] in
  let vector_sizes = if smoke then [ 256; 16_384 ] else [ 256; 4_096; 65_536 ] in
  let configs sizes = List.concat_map (fun p -> List.map (fun e -> (p, e)) sizes) ps in
  sweep ~coll:"allreduce" ~op:Coll_algo.Allreduce
    ~algos:[ Coll_algo.Reduce_bcast; Coll_algo.Recursive_doubling; Coll_algo.Rabenseifner ]
    ~configs:(configs allreduce_sizes)
    ~body:(fun ~elems comm ->
      let data = Array.init elems (fun i -> i + Comm.rank comm) in
      ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum data));
  sweep ~coll:"allgather (per-rank elems)" ~op:Coll_algo.Allgather
    ~algos:[ Coll_algo.Bruck; Coll_algo.Ring ]
    ~configs:(configs vector_sizes)
    ~body:(fun ~elems comm ->
      let data = Array.init elems (fun i -> i + Comm.rank comm) in
      ignore (Coll.allgather comm Datatype.int data));
  sweep ~coll:"bcast" ~op:Coll_algo.Bcast
    ~algos:[ Coll_algo.Binomial; Coll_algo.Scatter_allgather ]
    ~configs:(configs vector_sizes)
    ~body:(fun ~elems comm ->
      let data = if Comm.rank comm = 0 then Some (Array.init elems (fun i -> i)) else None in
      ignore (Coll.bcast comm Datatype.int ~root:0 data));
  sweep ~coll:"reduce_scatter_block (total elems)" ~op:Coll_algo.Reduce_scatter
    ~algos:[ Coll_algo.Reduce_scatterv; Coll_algo.Pairwise ]
    ~configs:
      (List.filter (fun (p, e) -> e mod p = 0) (configs vector_sizes))
    ~body:(fun ~elems comm ->
      let data = Array.init elems (fun i -> i) in
      ignore (Coll.reduce_scatter_block comm Datatype.int Reduce_op.int_sum data));
  Printf.printf "\n-- acceptance gates --\n";
  gate "auto within 2% of the fastest pinned" (!auto_losses = [])
    (match !auto_losses with
    | [] -> Printf.sprintf "%d cells" !swept
    | l -> String.concat ", " (List.rev l));
  allreduce_gate ();
  reduce_scatter_gate ();
  if !gate_failures <> [] then begin
    Printf.eprintf "bench_coll: %d gate(s) failed: %s\n" (List.length !gate_failures)
      (String.concat ", " !gate_failures);
    Bench_util.record_failed_gates ~bench:"coll" !gate_failures
  end;
  Printf.printf "(results appended to %s)\n" results_file
