(** Benchmark regression comparison over the harness's JSON Lines output:
    the engine behind [repro_cli bench-diff] and the CI perf gate.

    Records are matched across two files on their identity (bench name
    plus every non-metric field); each shared metric is compared under a
    relative tolerance.  Metric fields and their better-direction are
    recognized by naming convention: [*_seconds], [*_peak_elems],
    [*_words] (allocation counts) and [*_calls] (per-element callback
    counts) lower is better, [*_per_second] and
    [speedup]/[*_speedup] higher is better.
    Metrics containing ["wall"] measure the host machine and are skipped
    unless [include_wall] is set. *)

type direction = Lower_better | Higher_better

(** [None] means the field is part of the record's identity, not a
    measurement. *)
val metric_direction : string -> direction option

val is_wall : string -> bool

type record = {
  r_bench : string;
  r_keys : (string * string) list;  (** identity fields, sorted by name *)
  r_metrics : (string * float) list;
}

(** Parse one JSON-Lines object into a record; [None] for non-objects. *)
val record_of_json : Json_in.t -> record option

(** Load every record of a JSON Lines file. *)
val load : string -> (record list, string) result

(** The matching key: bench name plus every identity field, rendered
    ["bench|k=v|..."] (also the [d_id] of reported deltas). *)
val identity : record -> string

type delta = {
  d_id : string;
  d_metric : string;
  d_old : float;
  d_new : float;
  d_ratio : float;  (** new / old *)
}

type verdict = {
  compared : int;
  skipped_wall : int;
  missing_baseline : int;  (** current records with no baseline match *)
  regressions : delta list;
  improvements : delta list;
}

(** Compare [current] against [baseline] under a relative [tolerance]
    (default 10%).  Current records without a baseline are counted, not
    failed, so new benchmarks never break the gate. *)
val diff :
  ?tolerance:float ->
  ?include_wall:bool ->
  baseline:record list ->
  current:record list ->
  unit ->
  verdict

val has_regressions : verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit
