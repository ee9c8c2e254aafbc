(* §IV-C / Fig. 11: the RAxML-NG-analogue integration.

   The phylogenetic workload issues a serialized model broadcast plus a
   likelihood allreduce per optimizer iteration (the paper's application
   ran ~700 MPI calls per second).  We compare the hand-rolled
   parallelization layer (bespoke binary stream, size broadcast + payload
   broadcast) against the binding layer's one-line serialized broadcast:

   - final scores must be identical (the layers are semantically equal);
   - wall-clock times must match within noise (replacing the layer incurs
     no measurable overhead);
   - the call mix shows what each layer issues.

   [~smoke] runs each layer once under the Virtual_only clock at a small
   size and writes BENCH_RAXML.json for the bench-diff CI gate: one row
   per layer with its final score's bits, its simulated seconds and each
   profiled operation's calls and bytes, all exact; unequal final scores
   fail the run. *)

open Mpisim

let ranks = 8

let sites_per_rank = 400

let iterations = 100

let results_file = "BENCH_RAXML.json"

let run_layer ?clock_mode ?(ranks = ranks) ?(sites_per_rank = sites_per_rank)
    ?(iterations = iterations) layer =
  let score = ref 0. in
  let report =
    Engine.run ?clock_mode ~ranks (fun comm ->
        let s =
          Phylo.Workload.run layer comm ~sites_per_rank ~iterations ~n_branches:64
            ~n_partitions:8
        in
        if Comm.rank comm = 0 then score := s)
  in
  (!score, report)

let score_bits s = Printf.sprintf "%Lx" (Int64.bits_of_float s)

let run_smoke () =
  Bench_util.section "RAxML-NG-analogue smoke (paper SIV-C, Fig. 11): Virtual_only, exact";
  let layers = [ Phylo.Workload.handrolled; Phylo.Workload.kamping ] in
  let runs =
    List.map
      (fun (layer : Phylo.Workload.layer) ->
        let score, report =
          run_layer ~clock_mode:Runtime.Virtual_only ~ranks:4 ~sites_per_rank:64
            ~iterations:10 layer
        in
        Bench_util.emit_json_file ~file:results_file ~bench:"raxml"
          ([
             ("layer", Bench_util.S layer.name);
             ("final_score_bits", Bench_util.S (score_bits score));
             ("sim_seconds", Bench_util.F report.Engine.max_time);
           ]
          @ List.concat_map
              (fun (op, calls, bytes) ->
                [
                  (op ^ "_calls", Bench_util.I calls); (op ^ "_bytes", Bench_util.I bytes);
                ])
              report.Engine.profile);
        (layer.name, score, report))
      layers
  in
  Bench_util.print_table
    ~header:[ "layer"; "simulated time"; "final score bits"; "profile (op calls bytes)" ]
    (List.map
       (fun (name, score, report) ->
         [
           name;
           Bench_util.time_str report.Engine.max_time;
           score_bits score;
           String.concat ", "
             (List.map
                (fun (op, c, b) -> Printf.sprintf "%s %d %d" op c b)
                report.Engine.profile);
         ])
       runs);
  match runs with
  | [ (_, a, _); (_, b, _) ]
    when not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) ->
      Bench_util.record_failed_gates ~bench:"raxml" [ "final scores of both layers equal" ]
  | _ -> ()

let run_full () =
  Bench_util.section
    (Printf.sprintf
       "RAxML-NG-analogue (paper SIV-C, Fig. 11): %d iterations, %d sites/rank, %d ranks"
       iterations sites_per_rank ranks);
  let wall_hand, (score_hand, rep_hand) =
    Bench_util.wall_median (fun () -> run_layer Phylo.Workload.handrolled)
  in
  let wall_kamp, (score_kamp, rep_kamp) =
    Bench_util.wall_median (fun () -> run_layer Phylo.Workload.kamping)
  in
  let total_calls report =
    List.fold_left (fun acc (_, c, _) -> acc + c) 0 report.Engine.profile
  in
  Bench_util.print_table
    ~header:[ "layer"; "wall time"; "simulated time"; "runtime calls"; "final score bits" ]
    [
      [
        "hand-rolled";
        Bench_util.ns_string (wall_hand *. 1e9);
        Bench_util.time_str rep_hand.Engine.max_time;
        string_of_int (total_calls rep_hand);
        Printf.sprintf "%Lx" (Int64.bits_of_float score_hand);
      ];
      [
        "kamping";
        Bench_util.ns_string (wall_kamp *. 1e9);
        Bench_util.time_str rep_kamp.Engine.max_time;
        string_of_int (total_calls rep_kamp);
        Printf.sprintf "%Lx" (Int64.bits_of_float score_kamp);
      ];
    ];
  Printf.printf "\nscores identical: %b; wall overhead of kamping layer: %+.1f%%\n"
    (Int64.equal (Int64.bits_of_float score_hand) (Int64.bits_of_float score_kamp))
    (((wall_kamp /. wall_hand) -. 1.) *. 100.);
  let rate = float_of_int (total_calls rep_kamp) /. rep_kamp.Engine.max_time in
  Printf.printf "simulated call rate: %.0f runtime calls/second (paper regime: ~700/s per rank)\n"
    rate

let run ?(smoke = false) () = if smoke then run_smoke () else run_full ()
