(* Shared benchmark utilities: table rendering, line counting for the
   LoC comparisons, and timing helpers.

   Two kinds of measurement appear in the suite:
   - *simulated time*: the virtual clock of the runtime (per-rank compute
     measured for real, communication from the network model) — this is
     what the scaling figures report;
   - *wall-clock time*: real time of the binding layer itself, measured
     with Bechamel — this is what the zero-overhead microbenchmarks
     report. *)

(* Acceptance gates that failed in this process, as "bench: gate", in
   the order the benches ran.  A bench records its failures here rather
   than exiting, so every selected experiment still runs and writes its
   JSON; [bench/main.ml] lists them all and exits 1 at the end. *)
let failed_gates = ref []

(* [gates] as a bench keeps them: newest first. *)
let record_failed_gates ~bench gates =
  failed_gates := !failed_gates @ List.rev_map (fun g -> bench ^ ": " ^ g) gates

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let print_table ~(header : string list) (rows : string list list) =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    List.iteri
      (fun c cell -> Printf.printf "%-*s  " (List.nth widths c) cell)
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* Count non-blank, non-comment source lines of an OCaml file.  Block
   comments are tracked with a nesting counter (good enough for our own
   sources, which never put code after a comment close on the same line
   unless it is real code — we count such lines as code). *)
let count_loc path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let depth = ref 0 in
      let loc = ref 0 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           let n = String.length line in
           let had_code = ref false in
           let i = ref 0 in
           while !i < n do
             if !i + 1 < n && line.[!i] = '(' && line.[!i + 1] = '*' then begin
               incr depth;
               i := !i + 2
             end
             else if !i + 1 < n && line.[!i] = '*' && line.[!i + 1] = ')' then begin
               decr depth;
               i := !i + 2
             end
             else begin
               if !depth = 0 && line.[!i] <> ' ' && line.[!i] <> '\t' then had_code := true;
               incr i
             end
           done;
           if !had_code then incr loc
         done
       with End_of_file -> ());
      close_in ic;
      Some !loc

(* Locate a source file: benchmarks run from the workspace root under
   `dune exec`, but fall back to the environment if not. *)
let source_path rel =
  let candidates =
    [
      rel;
      Filename.concat ".." rel;
      Filename.concat "../.." rel;
      (match Sys.getenv_opt "KAMPING_ROOT" with
      | Some root -> Filename.concat root rel
      | None -> rel);
    ]
  in
  List.find_opt Sys.file_exists candidates

let loc_of rel =
  match source_path rel with
  | None -> None
  | Some path -> count_loc path

let loc_string rel =
  match loc_of rel with Some n -> string_of_int n | None -> "n/a"

let time_str (t : float) = Mpisim.Sim_time.to_string t

(* Wall-clock median of [runs] executions of [f] (for coarse comparisons
   where Bechamel's statistical machinery is overkill). *)
let wall_median ?(runs = 5) (f : unit -> 'a) : float * 'a =
  let result = ref None in
  let times =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        result := Some (f ());
        Unix.gettimeofday () -. t0)
  in
  let sorted = List.sort compare times in
  (List.nth sorted (runs / 2), Option.get !result)

let speedup_string ~baseline t = Printf.sprintf "%.2fx" (t /. baseline)

(* [f]'s result and the minor words it allocates, read as the test
   suites' allocation pins read them (test/alloc.ml): a minor collection
   first, then [Gc.minor_words] last before [f] and first after it, a
   read that allocates nothing. *)
let minor_words f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0)

(* ------------------------------------------------------------------ *)
(* Bechamel wrapper: run closures under OLS analysis, return ns/run. *)

let bechamel_estimates ?(quota = 1.5) ~name (tests : (string * (unit -> unit)) list) :
    (string * float) list =
  let open Bechamel in
  let elements =
    List.map (fun (n, f) -> Test.make ~name:n (Staged.stage f)) tests
  in
  let grouped = Test.make_grouped ~name ~fmt:"%s/%s" elements in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:None () in
  let raws = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Analyze.all ols instance raws in
  List.filter_map
    (fun (n, _) ->
      match Hashtbl.find_opt results (name ^ "/" ^ n) with
      | Some o -> (
          match Analyze.OLS.estimates o with
          | Some (e :: _) -> Some (n, e)
          | Some [] | None -> None)
      | None -> None)
    tests

let ns_string ns =
  if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.2fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.3fs" (ns /. 1e9)

(* ------------------------------------------------------------------ *)
(* Machine-readable results.

   When BENCH_JSON names a file, every measurement also appends one JSON
   object per line there (JSON Lines), so plots and regression checks can
   consume benchmark output without scraping tables:

     BENCH_JSON=results.jsonl dune exec bench/main.exe -- fig8 *)

type json_value = S of string | I of int | F of float

let json_path = Sys.getenv_opt "BENCH_JSON"

let append_json_line ~path ~bench (fields : (string * json_value) list) =
  let buf = Buffer.create 128 in
  let o = Mpisim.Json_out.start_obj buf in
  Mpisim.Json_out.field_str o "bench" bench;
  List.iter
    (fun (k, v) ->
      match v with
      | S s -> Mpisim.Json_out.field_str o k s
      | I i -> Mpisim.Json_out.field_int o k i
      | F f -> Mpisim.Json_out.field_float o k f)
    fields;
  Mpisim.Json_out.end_obj o;
  Buffer.add_char buf '\n';
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Buffer.contents buf);
  close_out oc

let emit_json ~bench (fields : (string * json_value) list) =
  match json_path with
  | None -> ()
  | Some path -> append_json_line ~path ~bench fields

(* Dedicated per-benchmark result files (BENCH_PINGPONG.json etc.), written
   unconditionally so CI can upload them as artifacts without configuring
   BENCH_JSON.  [emit_json_file] truncates on first write per process so a
   rerun does not append to stale series.

   When BENCH_HISTORY is set, each file is mirrored into the perf-history
   store at $BENCH_HISTORY/<file> (default directory: bench/history when
   the variable is "1" or empty) — the committed baselines that
   `repro_cli bench-diff` and the CI perf gate compare fresh runs
   against. *)
let json_files_started : (string, unit) Hashtbl.t = Hashtbl.create 4

let history_dir =
  match Sys.getenv_opt "BENCH_HISTORY" with
  | None -> None
  | Some "" | Some "1" -> Some (Filename.concat "bench" "history")
  | Some dir -> Some dir

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let history_targets file =
  match history_dir with
  | None -> [ file ]
  | Some dir ->
      mkdir_p dir;
      [ file; Filename.concat dir (Filename.basename file) ]

let emit_json_file ~file ~bench (fields : (string * json_value) list) =
  List.iter
    (fun path ->
      if not (Hashtbl.mem json_files_started path) then begin
        Hashtbl.replace json_files_started path ();
        let oc = open_out path in
        close_out oc
      end;
      append_json_line ~path ~bench fields)
    (history_targets file)

(* Append a full stats-registry dump as one JSON line (e.g. a run's
   message-size/latency histograms next to its headline number). *)
let emit_stats_json ~bench (stats : Mpisim.Stats.t) =
  match json_path with
  | None -> ()
  | Some path ->
      let buf = Buffer.create 512 in
      let o = Mpisim.Json_out.start_obj buf in
      Mpisim.Json_out.field_str o "bench" bench;
      Mpisim.Json_out.key o "stats";
      Mpisim.Stats.json_into buf stats;
      Mpisim.Json_out.end_obj o;
      Buffer.add_char buf '\n';
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (Buffer.contents buf);
      close_out oc
