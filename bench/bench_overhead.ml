(* The (near) zero-overhead claim (paper §I, §III-H, §IV).

   Two measurements:

   1. PMPI-style call accounting: the binding layer must issue exactly the
      underlying calls a hand-written program would — one allgatherv when
      all parameters are supplied; one extra count-allgather only when the
      caller asked the library to infer the counts (§III-H: "we use MPI's
      profiling interface to ensure that only the expected MPI calls are
      issued").

   2. Bechamel wall-clock microbenchmark: identical programs (zero-cost
      network model, virtual-only clock, so all that remains is real CPU
      time) through the raw interface vs. the binding layer with explicit
      parameters vs. with inferred parameters. Explicit must be within
      noise of raw; inferred is measured against the raw program that
      exchanges the counts by hand (an allgather of the counts, then the
      allgatherv), the program a user without count inference writes. *)

open Mpisim

let ranks = 8

let elems = 64

let calls = 20

type variant = Raw | Raw_exchange | Kamping_explicit | Kamping_inferred | Named_explicit

let variant_name = function
  | Raw -> "raw mpisim"
  | Raw_exchange -> "raw mpisim (counts exchanged by hand)"
  | Kamping_explicit -> "kamping (all params given)"
  | Kamping_inferred -> "kamping (counts inferred)"
  | Named_explicit -> "named params (all given)"

let program variant mpi =
  let comm = Kamping.Communicator.of_mpi mpi in
  let r = Comm.rank mpi in
  let v = Array.init elems (fun i -> (r * 1000) + i) in
  let recv_counts_arr = Array.make ranks elems in
  let recv_displs_arr = Array.init ranks (fun i -> i * elems) in
  let recv_counts = recv_counts_arr in
  let recv_displs = recv_displs_arr in
  for _ = 1 to calls do
    match variant with
    | Raw -> ignore (Coll.allgatherv mpi Datatype.int ~recv_counts v)
    | Raw_exchange ->
        let recv_counts = Coll.allgather mpi Datatype.int [| Array.length v |] in
        ignore (Coll.allgatherv mpi Datatype.int ~recv_counts v)
    | Kamping_explicit ->
        ignore (Kamping.Collectives.allgatherv comm Datatype.int ~recv_counts ~recv_displs v)
    | Kamping_inferred -> ignore (Kamping.Collectives.allgatherv comm Datatype.int v)
    | Named_explicit ->
        ignore
          (Kamping.Named.(
             allgatherv comm Datatype.int
               [ send_buf v; recv_counts recv_counts_arr; recv_displs recv_displs_arr ]))
  done

let run_wall variant () =
  ignore
    (Engine.run ~model:Net_model.zero_cost ~clock_mode:Runtime.Virtual_only ~ranks
       (program variant))

let call_accounting () =
  Printf.printf "\nPMPI call accounting (one kamping allgatherv, p=%d):\n" ranks;
  let count_ops variant =
    let report =
      Engine.run ~model:Net_model.zero_cost ~ranks (fun mpi ->
          let comm = Kamping.Communicator.of_mpi mpi in
          let v = Array.init elems (fun i -> i) in
          match variant with
          | Raw -> ignore (Coll.allgatherv mpi Datatype.int ~recv_counts:(Array.make ranks elems) v)
          | Raw_exchange ->
              let recv_counts = Coll.allgather mpi Datatype.int [| Array.length v |] in
              ignore (Coll.allgatherv mpi Datatype.int ~recv_counts v)
          | Kamping_explicit ->
              ignore
                (Kamping.Collectives.allgatherv comm Datatype.int
                   ~recv_counts:(Array.make ranks elems)
                   ~recv_displs:(Array.init ranks (fun i -> i * elems))
                   v)
          | Kamping_inferred -> ignore (Kamping.Collectives.allgatherv comm Datatype.int v)
          | Named_explicit ->
              ignore
                (Kamping.Named.(
                   allgatherv comm Datatype.int
                     [
                       send_buf v;
                       recv_counts (Array.make ranks elems);
                       recv_displs (Array.init ranks (fun i -> i * elems));
                     ])))
    in
    let calls_of op =
      match List.find_opt (fun (o, _, _) -> o = op) report.Engine.profile with
      | Some (_, c, _) -> c / ranks (* per rank *)
      | None -> 0
    in
    (calls_of "allgatherv", calls_of "allgather")
  in
  let header = [ "variant"; "allgatherv calls"; "allgather calls (count exchange)" ] in
  let rows =
    List.map
      (fun v ->
        let agv, ag = count_ops v in
        [ variant_name v; string_of_int agv; string_of_int ag ])
      [ Raw; Kamping_explicit; Named_explicit; Raw_exchange; Kamping_inferred ]
  in
  Bench_util.print_table ~header rows

let results_file = "BENCH_OVERHEAD.json"

(* ------------------------------------------------------------------ *)
(* Persistent operations (MPI-4): the stencil-loop case for *_init.

   Same allreduce, two ways: ad-hoc calls pay argument validation,
   algorithm selection, profiling-handle lookups and working-buffer
   allocation on every iteration; the persistent request pays them once
   at init.  Two gates, both on minor words, which repeat exactly from
   run to run: the persistent loop must allocate less, and on a single
   rank the start/wait cycle must be allocation-free outright (the Gc
   assertion).  The wall-time ratio of the two loops measures the host
   as much as the code (it has read below 1x on a shared 2-vCPU host),
   so it is printed and recorded as [wall_speedup], never gated. *)

let gate_failures = ref []

let gate name ok detail =
  Printf.printf "gate %-42s %s  (%s)\n" name (if ok then "PASS" else "FAIL") detail;
  if not ok then gate_failures := name :: !gate_failures

let stencil_ranks = 8

let stencil_elems = 4096

let stencil_adhoc ~iterations mpi =
  let r = Comm.rank mpi in
  let src = Array.init stencil_elems (fun i -> r + i) in
  for it = 1 to iterations do
    src.(0) <- src.(0) + it;
    ignore (Coll.allreduce mpi Datatype.int Reduce_op.int_sum src)
  done

let stencil_persistent ~iterations mpi =
  let r = Comm.rank mpi in
  let src = Array.init stencil_elems (fun i -> r + i) in
  let dst = Array.make stencil_elems 0 in
  let req = Coll.allreduce_init mpi Datatype.int Reduce_op.int_sum ~src ~dst in
  for it = 1 to iterations do
    src.(0) <- src.(0) + it;
    Request.start req;
    ignore (Request.wait req)
  done;
  Request.free req

(* Median wall seconds and mean minor words of [runs] full simulations.
   The words include engine setup, identical across variants, so the
   difference isolates the per-iteration allocation. *)
let measure_stencil ~iterations ~runs body =
  let (wall, ()), words =
    Bench_util.minor_words (fun () ->
        Bench_util.wall_median ~runs (fun () ->
            ignore
              (Engine.run ~model:Net_model.zero_cost ~clock_mode:Runtime.Virtual_only
                 ~ranks:stencil_ranks (body ~iterations))))
  in
  (wall, words /. float_of_int runs)

(* Minor words of 10k start/wait cycles on one rank, measured inside the
   (only) fiber after a short warm-up — the strict zero-allocation
   assertion: a single-rank cycle runs no transport, so anything it
   allocates is binding overhead. *)
let single_rank_cycle_words () =
  let words = ref infinity in
  ignore
    (Engine.run ~model:Net_model.zero_cost ~clock_mode:Runtime.Virtual_only ~ranks:1
       (fun mpi ->
         let src = Array.init stencil_elems (fun i -> i) in
         let dst = Array.make stencil_elems 0 in
         let req = Coll.allreduce_init mpi Datatype.int Reduce_op.int_sum ~src ~dst in
         for _ = 1 to 10 do
           Request.start req;
           ignore (Request.wait req)
         done;
         let (), w =
           Bench_util.minor_words (fun () ->
               for _ = 1 to 10_000 do
                 Request.start req;
                 ignore (Request.wait req)
               done)
         in
         words := w;
         Request.free req));
  !words

let persistent_section ~smoke () =
  Bench_util.section "Persistent operations: allreduce_init vs ad-hoc stencil loop";
  let iterations = if smoke then 200 else 1000 in
  let runs = if smoke then 3 else 5 in
  Printf.printf "program: %d-iteration allreduce stencil of %d ints on %d ranks\n\n"
    iterations stencil_elems stencil_ranks;
  let adhoc_wall, adhoc_words = measure_stencil ~iterations ~runs stencil_adhoc in
  let pers_wall, pers_words = measure_stencil ~iterations ~runs stencil_persistent in
  let p1_words = single_rank_cycle_words () in
  let wall_speedup = adhoc_wall /. pers_wall in
  Bench_util.print_table
    ~header:[ "series"; "wall/run"; "minor words/run"; "vs ad-hoc" ]
    [
      [ "adhoc_allreduce"; Bench_util.ns_string (adhoc_wall *. 1e9);
        Printf.sprintf "%.0f" adhoc_words; "1.00x" ];
      [ "persistent_allreduce"; Bench_util.ns_string (pers_wall *. 1e9);
        Printf.sprintf "%.0f" pers_words;
        Printf.sprintf "%.2fx" wall_speedup ];
    ];
  Printf.printf "\nsingle-rank start/wait, 10k cycles: %.0f minor words\n" p1_words;
  List.iter
    (fun (series, wall, words, extra) ->
      Bench_util.emit_json_file ~file:results_file ~bench:"overhead"
        ([
           ("series", Bench_util.S series);
           ("iterations", Bench_util.I iterations);
           ("ranks", Bench_util.I stencil_ranks);
           ("elems", Bench_util.I stencil_elems);
           ("wall_seconds", Bench_util.F wall);
           ("minor_words", Bench_util.F words);
         ]
        @ extra))
    [
      ("adhoc_allreduce", adhoc_wall, adhoc_words, []);
      ( "persistent_allreduce",
        pers_wall,
        pers_words,
        [ ("wall_speedup", Bench_util.F wall_speedup) ] );
    ];
  Bench_util.emit_json_file ~file:results_file ~bench:"overhead"
    [
      ("series", Bench_util.S "persistent_allreduce_single_rank");
      ("cycles", Bench_util.I 10_000);
      ("minor_words", Bench_util.F p1_words);
    ];
  Printf.printf "\n-- persistent gates --\n";
  gate "persistent allocates less than ad-hoc"
    (pers_words < adhoc_words)
    (Printf.sprintf "%.0f vs %.0f words" pers_words adhoc_words);
  gate "single-rank start/wait allocation-free" (p1_words < 100.)
    (Printf.sprintf "%.0f words/10k cycles" p1_words)

let run ?(smoke = false) () =
  Bench_util.section
    "Zero-overhead check: binding layer vs raw interface (wall clock, Bechamel)";
  Printf.printf "program: %d x allgatherv of %d ints on %d ranks, zero-cost network\n\n"
    calls elems ranks;
  let estimates =
    Bench_util.bechamel_estimates
      ~quota:(if smoke then 0.25 else 1.5)
      ~name:"overhead"
      (List.map
         (fun v -> (variant_name v, run_wall v))
         [ Raw; Kamping_explicit; Named_explicit; Raw_exchange; Kamping_inferred ])
  in
  (* Each variant against the raw program that computes the same thing:
     the inferred call against the hand-written count exchange. *)
  let raw_of n =
    variant_name (if n = variant_name Kamping_inferred then Raw_exchange else Raw)
  in
  (match estimates with
  | _ :: _ ->
      Bench_util.print_table
        ~header:[ "variant"; "wall time/run"; "vs its raw program" ]
        (List.map
           (fun (n, ns) ->
             let base = Option.value (List.assoc_opt (raw_of n) estimates) ~default:ns in
             (* Wall time per run only: bench-diff keys a row on its
                non-metric fields, so a ratio like "vs raw" stays in the
                table, or the row would never meet its baseline. *)
             Bench_util.emit_json_file ~file:results_file ~bench:"overhead"
               [
                 ("variant", Bench_util.S n);
                 ("wall_seconds", Bench_util.F (ns *. 1e-9));
               ];
             [ n; Bench_util.ns_string ns; Printf.sprintf "%+.1f%%" ((ns /. base -. 1.) *. 100.) ])
           estimates)
  | [] -> Printf.printf "bechamel produced no estimates\n");
  call_accounting ();
  persistent_section ~smoke ();
  if !gate_failures <> [] then begin
    Printf.eprintf "bench_overhead: %d gate(s) failed: %s\n"
      (List.length !gate_failures)
      (String.concat ", " !gate_failures);
    Bench_util.record_failed_gates ~bench:"overhead" !gate_failures
  end;
  Printf.printf "(results appended to %s)\n" results_file
