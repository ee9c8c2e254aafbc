(* Benchmark regression comparison: the engine behind `repro_cli
   bench-diff` and the CI perf gate.

   Inputs are the JSON Lines files the benchmark harness emits
   (BENCH_PINGPONG.json, BENCH_COLL.json, or any BENCH_JSON capture): one
   object per line with a "bench" name, configuration fields and measured
   metrics.  Records are matched across the two files on their identity —
   the bench name plus every non-metric field — and each shared metric is
   compared under a relative tolerance.

   Which fields are metrics, and which direction is better, is keyed on
   the suite's naming conventions:

     *_seconds            lower is better (includes modelled latencies)
     *_per_second         higher is better (bandwidth)
     speedup, *_speedup   higher is better
     *_peak_elems         lower is better (scratch-memory ceilings)
     *_words              lower is better (minor-heap allocation counts)
     *_calls              lower is better (per-element callback counts)

   Metrics containing "wall" measure the host machine rather than the
   model and are skipped by default: only the deterministic modelled
   numbers are stable enough for a hard CI gate. *)

type direction = Lower_better | Higher_better

let has_suffix s suf =
  let n = String.length s and m = String.length suf in
  n >= m && String.sub s (n - m) m = suf

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let metric_direction name =
  if has_suffix name "_seconds" then Some Lower_better
  else if has_suffix name "_per_second" then Some Higher_better
  else if name = "speedup" || has_suffix name "_speedup" then Some Higher_better
  else if
    has_suffix name "_peak_elems" || has_suffix name "_words" || has_suffix name "_calls"
  then Some Lower_better
  else None

let is_wall name = contains name "wall"

type record = {
  r_bench : string;
  r_keys : (string * string) list;  (* identity: non-metric fields, sorted *)
  r_metrics : (string * float) list;
}

(* Render a non-metric field for the identity key.  Integral floats print
   as integers so 64 and 64.0 match. *)
let value_string (v : Json_in.t) =
  match v with
  | Json_in.Str s -> s
  | Json_in.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        string_of_int (int_of_float f)
      else Printf.sprintf "%.17g" f
  | Json_in.Bool b -> string_of_bool b
  | Json_in.Null -> "null"
  | Json_in.Arr _ | Json_in.Obj _ -> "<composite>"

let record_of_json (j : Json_in.t) =
  match j with
  | Json_in.Obj fields ->
      let bench =
        match List.assoc_opt "bench" fields with Some (Json_in.Str s) -> s | _ -> ""
      in
      let keys = ref [] and metrics = ref [] in
      List.iter
        (fun (k, v) ->
          if k <> "bench" then begin
            match (metric_direction k, v) with
            | Some _, Json_in.Num f -> metrics := (k, f) :: !metrics
            | _ -> keys := (k, value_string v) :: !keys
          end)
        fields;
      Some
        {
          r_bench = bench;
          r_keys = List.sort compare !keys;
          r_metrics = List.rev !metrics;
        }
  | _ -> None

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Json_in.parse_lines contents with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok values -> Ok (List.filter_map record_of_json values))

let identity r =
  r.r_bench ^ "|" ^ String.concat "|" (List.map (fun (k, v) -> k ^ "=" ^ v) r.r_keys)

type delta = {
  d_id : string;  (* human-readable record identity *)
  d_metric : string;
  d_old : float;
  d_new : float;
  d_ratio : float;  (* new / old *)
}

type verdict = {
  compared : int;  (* metric values compared *)
  skipped_wall : int;
  missing_baseline : int;  (* current records with no baseline match *)
  regressions : delta list;
  improvements : delta list;
}

let diff ?(tolerance = 0.10) ?(include_wall = false) ~baseline ~current () =
  let base = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace base (identity r) r) baseline;
  let compared = ref 0 and skipped_wall = ref 0 and missing = ref 0 in
  let regressions = ref [] and improvements = ref [] in
  List.iter
    (fun cur ->
      match Hashtbl.find_opt base (identity cur) with
      | None -> incr missing
      | Some old ->
          List.iter
            (fun (metric, nv) ->
              match List.assoc_opt metric old.r_metrics with
              | None -> ()
              | Some ov ->
                  if is_wall metric && not include_wall then incr skipped_wall
                  else begin
                    incr compared;
                    let dir = Option.get (metric_direction metric) in
                    let ratio =
                      if ov <> 0. then nv /. ov
                      else if nv = 0. then 1.
                      else match dir with Lower_better -> infinity | Higher_better -> 0.
                    in
                    let delta =
                      {
                        d_id = identity cur;
                        d_metric = metric;
                        d_old = ov;
                        d_new = nv;
                        d_ratio = ratio;
                      }
                    in
                    match dir with
                    | Lower_better ->
                        if ratio > 1. +. tolerance then regressions := delta :: !regressions
                        else if ratio < 1. -. tolerance then
                          improvements := delta :: !improvements
                    | Higher_better ->
                        if ratio < 1. -. tolerance then regressions := delta :: !regressions
                        else if ratio > 1. +. tolerance then
                          improvements := delta :: !improvements
                  end)
            cur.r_metrics)
    current;
  {
    compared = !compared;
    skipped_wall = !skipped_wall;
    missing_baseline = !missing;
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
  }

let has_regressions v = v.regressions <> []

let pp_delta ppf d =
  Format.fprintf ppf "  %s :: %s  %.6g -> %.6g  (%.1f%%)" d.d_id d.d_metric d.d_old
    d.d_new
    ((d.d_ratio -. 1.) *. 100.)

let pp_verdict ppf v =
  Format.fprintf ppf "compared %d metric values (%d wall-clock skipped)@." v.compared
    v.skipped_wall;
  if v.missing_baseline > 0 then
    Format.fprintf ppf "%d record(s) have no baseline yet (not a failure)@."
      v.missing_baseline;
  if v.regressions <> [] then begin
    Format.fprintf ppf "REGRESSIONS (%d):@." (List.length v.regressions);
    List.iter (fun d -> Format.fprintf ppf "%a@." pp_delta d) v.regressions
  end;
  if v.improvements <> [] then begin
    Format.fprintf ppf "improvements (%d):@." (List.length v.improvements);
    List.iter (fun d -> Format.fprintf ppf "%a@." pp_delta d) v.improvements
  end;
  if v.regressions = [] then Format.fprintf ppf "no regressions@."
