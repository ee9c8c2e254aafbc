(* The engine program every workload runs, and the record of what it did.

   One [run] is one [Engine.run] on a pinned configuration:
   sequential scheduler, [Virtual_only] clock with the OmniPath model,
   sanitizer off.  Each rank first runs the workload's setup, then
   executes batches of steps decided by a [plan].  Batches are separated
   by a shared-memory barrier: no messages, no simulated time and no
   profiling records, so the windows between barriers contain exactly
   the batch's own work.  The last rank to arrive takes a snapshot of the
   runtime's counters and asks the plan for the next batch before anyone
   resumes, so every rank reads the same decision.

   Rank 0 times each step with a monotonic clock and, in batches that
   ask for it, times the reference kernel ([Calib]) between steps.  A
   step that returns
   [false] (an output check failed) or raises counts as failed; it never
   aborts the run silently. *)

open Mpisim

type variant =
  | Kamping  (** the workload's step as its users write it *)
  | Kamping_traced  (** the same calls, each wrapped in a span *)
  | Raw  (** the same messages through raw [Coll]/[P2p], explicit arguments *)
  | Explicit  (** kamping with every parameter supplied *)
  | Named  (** kamping's named-parameter front end, every parameter supplied *)
  | Raw_exchange  (** [Raw] plus the documented inferred-count exchange *)

let variant_name = function
  | Kamping -> "kamping"
  | Kamping_traced -> "kamping_traced"
  | Raw -> "raw"
  | Explicit -> "explicit"
  | Named -> "named"
  | Raw_exchange -> "raw_exchange"

(* A rank's prepared workload: the step of each variant it supports.  A
   step takes the input slot and returns whether the outputs checked. *)
type steps = variant -> (int -> bool) option

(* A datatype with its element type hidden. *)
type any_dt = Dt : 'a Datatype.t -> any_dt

type workload = {
  name : string;
  ranks : int;
  cycle : int;  (** distinct step inputs; steps cycle through them *)
  prepare : seed:int -> Comm.t -> steps;
  user_send_ops : string list;
      (** profiling ops the workload itself sends with; every other
          message is collective-internal *)
  payload : [ `Byte | `Int ];  (** element type of the workload's payloads *)
  op_types : (string * any_dt) list;
      (** the datatype each profiled op of the workload carries its bytes in *)
  wildcard_recv : [ `None | `Tag | `Source ];  (** receive pattern, for the mailbox peel *)
  variants : variant list;  (** variants compared in the traced run *)
}

(* ---- shared-memory barrier ---- *)

type barrier = { parties : int; mutable arrived : int; mutable generation : int }

let await b ~on_release =
  let g = b.generation in
  b.arrived <- b.arrived + 1;
  if b.arrived = b.parties then begin
    b.arrived <- 0;
    on_release ();
    b.generation <- g + 1
  end
  else
    Scheduler.park
      ~describe:(fun () -> "benchmark batch barrier")
      ~poll:(fun () -> if b.generation <> g then Some () else None)

(* ---- snapshots of the runtime's counters ---- *)

type snap = {
  wall_ns : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
  top_heap_words : int;
  profile : Profiling.summary;
  sent : int;
  unexpected : int;
  size_n : int;
  size_sum : float;
  depth_n : int;
  depth_sum : float;
  depth_buckets : (float * float * int) list;
  park_n : int;
  park_sum : float;
  pool_hits : int;
  pool_misses : int;
  busy : float;
  blocked : float;
  max_clock : float;
  span_counts : int array;  (** rank 0's span counts per name, cumulative *)
  span_ns : int array;  (** rank 0's span self nanoseconds per name, cumulative *)
  span_all_ns : int array;  (** every rank's span nanoseconds per name, cumulative *)
}

let snapshot (rt : Runtime.t) =
  let minor_words = Gc.minor_words () in
  let g = Gc.quick_stat () in
  let stats = rt.Runtime.stats in
  let hist name = Stats.histogram stats name in
  let hits = ref 0 and misses = ref 0 in
  Array.iter
    (fun pool ->
      let h, m, _ = Wire.pool_stats pool in
      hits := !hits + h;
      misses := !misses + m)
    rt.Runtime.wire_pools;
  let sum a = Array.fold_left ( +. ) 0. a in
  {
    wall_ns = Spans.now_ns ();
    minor_words;
    promoted_words = g.Gc.promoted_words;
    minor_gcs = g.Gc.minor_collections;
    major_gcs = g.Gc.major_collections;
    top_heap_words = g.Gc.top_heap_words;
    profile = Profiling.snapshot rt.Runtime.profile;
    sent = Stats.count (Stats.counter stats "msg.sent");
    unexpected = Stats.count (Stats.counter stats "msg.unexpected");
    size_n = Stats.total (hist "msg_size_bytes");
    size_sum = Stats.sum (hist "msg_size_bytes");
    depth_n = Stats.total (hist "mailbox_unexpected_depth");
    depth_sum = Stats.sum (hist "mailbox_unexpected_depth");
    depth_buckets = Stats.buckets (hist "mailbox_unexpected_depth");
    park_n = Stats.total (hist "fiber_park_wall_seconds");
    park_sum = Stats.sum (hist "fiber_park_wall_seconds");
    pool_hits = !hits;
    pool_misses = !misses;
    busy = sum rt.Runtime.busy;
    blocked = sum rt.Runtime.blocked;
    max_clock = Runtime.max_clock rt;
    span_counts = Array.copy Spans.count;
    span_ns = Array.copy Spans.total_ns;
    span_all_ns = Array.copy Spans.all_ns;
  }

(* ---- plans ---- *)

type item = {
  variant : variant;
  spans : bool;
  n : int;  (** steps in the batch *)
  first_slot : int;  (** input slot of the batch's first step *)
  tag : string;  (** what the plan uses the batch for *)
  calibrate : bool;  (** whether rank 0 times the reference kernel between steps *)
}

(* A finished batch: its item, the snapshots that bracket it and where
   rank 0's per-step wall times are in [Samples]. *)
type batch = { item : item; before : snap; after : snap; first : int; count : int }

type decision = Stop | Run of item

(* A plan sees the finished batches, newest first, and decides the next. *)
type plan = batch list -> decision

type outcome = {
  setup_ns : int;  (** from the engine call to the end of setup on every rank *)
  batches : batch list;  (** oldest first *)
  attempted : int;
  failed : int;
  failures : string list;  (** the first few failure messages *)
}

(* Rank 0's per-step wall times in nanoseconds, and the reference
   kernel's times taken between steps ([Calib]).  Both live outside the
   OCaml heap, so the heap peak does not depend on how many steps a run
   gets through. *)
module Samples = struct
  open Bigarray

  let capacity = 1 lsl 21

  let ns = Array1.create int c_layout capacity

  let n = ref 0

  let mark_capacity = 1 lsl 14

  (* Mark [j]: the kernel took [mark_ns.{j}] after [mark_at.{j}] samples. *)
  let mark_at = Array1.create int c_layout mark_capacity

  let mark_ns = Array1.create float64 c_layout mark_capacity

  let marks = ref 0

  let push v =
    if !n >= capacity then failwith "Harness.Samples: capacity exceeded";
    ns.{!n} <- v;
    incr n

  let mark () =
    if !marks < mark_capacity then begin
      let k = Calib.measure () in
      mark_at.{!marks} <- !n;
      mark_ns.{!marks} <- k;
      incr marks
    end
end

(* A batch's step times in nanoseconds. *)
let samples b = Array.init b.count (fun i -> Samples.ns.{b.first + i})

(* A batch's step times at reference speed: each scaled by the mean of
   the kernel times taken just before and just after it. *)
let scaled_samples b =
  let open Samples in
  if !marks = 0 then failwith "Harness.scaled_samples: no kernel times were taken";
  let j = ref 0 in
  Array.init b.count (fun i ->
      let s = b.first + i in
      while !j + 1 < !marks && mark_at.{!j + 1} <= s do
        incr j
      done;
      let before = mark_ns.{!j} in
      let after = if !j + 1 < !marks then mark_ns.{!j + 1} else before in
      let kernel_ns = if mark_at.{!j} <= s then (before +. after) /. 2. else before in
      Calib.scale ns.{s} ~kernel_ns)

let rethrow = function
  | Scheduler.Abandoned_fiber | Runtime.Process_killed _ | Out_of_memory | Stack_overflow ->
      true
  | _ -> false

let max_failure_messages = 5

(* Run [wl] once under [plan].  [hooks] turns on the engine's park/resume
   observation (a small trace ring), which the scheduler metrics need and
   the timed runs must not pay for. *)
let run ?(hooks = false) (wl : workload) ~seed (plan : plan) : outcome =
  let rt = ref None in
  let barrier = { parties = wl.ranks; arrived = 0; generation = 0 } in
  let current = ref Stop in
  let history = ref [] in
  let last = ref None in
  let first = ref !Samples.n in
  let t_begin = Spans.now_ns () in
  let setup_ns = ref 0 in
  let attempted = ref 0 in
  let failed_steps = Hashtbl.create 16 in
  let failures = ref [] in
  let note_failure step msg =
    Hashtbl.replace failed_steps step ();
    if List.length !failures < max_failure_messages then
      failures := Printf.sprintf "step %d: %s" step msg :: !failures
  in
  let release () =
    let s = snapshot (Option.get !rt) in
    (match (!current, !last) with
    | Run item, Some before ->
        let count = !Samples.n - !first in
        history := { item; before; after = s; first = !first; count } :: !history
    | _ -> setup_ns := s.wall_ns - t_begin);
    last := Some s;
    first := !Samples.n;
    current := plan !history;
    match !current with Run item -> Spans.on := item.spans | Stop -> Spans.on := false
  in
  let body mpi =
    let rank = Comm.rank mpi in
    let steps = wl.prepare ~seed mpi in
    await barrier ~on_release:release;
    let step_index = ref 0 in
    let rec loop () =
      match !current with
      | Stop -> ()
      | Run item ->
          let f =
            match steps item.variant with
            | Some f -> f
            | None ->
                invalid_arg
                  (Printf.sprintf "%s has no %s variant" wl.name (variant_name item.variant))
          in
          let calibrating = rank = 0 && item.calibrate in
          let last_mark = ref 0 in
          let mark () =
            Samples.mark ();
            last_mark := Spans.now_ns ()
          in
          if calibrating then mark ();
          for i = 0 to item.n - 1 do
            let slot = (item.first_slot + i) mod wl.cycle in
            let idx = !step_index in
            if rank = 0 then Spans.step := idx;
            let t0 = if rank = 0 then Spans.now_ns () else 0 in
            (match f slot with
            | true -> ()
            | false -> note_failure idx (Printf.sprintf "rank %d: output check failed" rank)
            | exception e when not (rethrow e) ->
                note_failure idx (Printf.sprintf "rank %d raised %s" rank (Printexc.to_string e)));
            if rank = 0 then begin
              let t1 = Spans.now_ns () in
              Samples.push (t1 - t0);
              incr attempted;
              if calibrating && t1 - !last_mark >= Calib.interval_ns then mark ()
            end;
            incr step_index
          done;
          if calibrating then mark ();
          await barrier ~on_release:release;
          loop ()
    in
    loop ()
  in
  let (_ : Engine.report) =
    Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only
      ~assertion_level:1 ~check_level:Check.Off ~domains:1
      ?trace_capacity:(if hooks then Some 16 else None)
      ~on_runtime:(fun r -> rt := Some r)
      ~ranks:wl.ranks body
  in
  Spans.on := false;
  {
    setup_ns = !setup_ns;
    batches = List.rev !history;
    attempted = !attempted;
    failed = Hashtbl.length failed_steps;
    failures = List.rev !failures;
  }

(* ---- plans used by the benchmark ---- *)

let elapsed_since (s : snap) = float_of_int (Spans.now_ns () - s.wall_ns) *. 1e-9

(* Steps per batch so that one batch lasts about [target] seconds, given a
   batch that took [ns] for [n] steps. *)
let batch_size ~target ~ns ~n =
  let per_step = float_of_int (max 1 ns) /. float_of_int (max 1 n) in
  max 1 (min 100_000 (int_of_float (target *. 1e9 /. per_step)))

let setup_only : plan = fun _ -> Stop

(* The untraced run: one exact window over the first cycle (the source of
   every bit-exact metric, and the warm-up), then timed batches of the
   workload's own step until [seconds] have passed and at least
   [min_samples] steps are timed.  Batches last about a second: each one
   adds a snapshot to the history, and with few of them the heap peak
   is the simulator's, not the benchmark's own records.  The timed
   batches carry reference-kernel timings; the exact window does not, so
   its counts hold only the workload's work. *)
let timed_plan (wl : workload) ~seconds ~min_samples : plan =
 fun history ->
  match List.rev history with
  | [] ->
      Run
        {
          variant = Kamping;
          spans = false;
          n = wl.cycle;
          first_slot = 0;
          tag = "exact";
          calibrate = false;
        }
  | exact :: timed ->
      let done_steps = List.fold_left (fun a b -> a + b.item.n) 0 timed in
      let limit = 3. *. seconds in
      let t = elapsed_since exact.after in
      if (t >= seconds && done_steps >= min_samples) || t >= limit then Stop
      else
        let n =
          batch_size ~target:1.0 ~ns:(exact.after.wall_ns - exact.before.wall_ns) ~n:wl.cycle
        in
        Run
          {
            variant = Kamping;
            spans = false;
            n;
            first_slot = done_steps mod wl.cycle;
            tag = "timed";
            calibrate = true;
          }

(* Fixed windows, each over one full cycle: an empty window first (the
   barrier's own footprint), then one per (variant, spans) pair. *)
let windows_plan (wl : workload) (items : (variant * bool) list) : plan =
  let all =
    { variant = Kamping; spans = false; n = 0; first_slot = 0; tag = "empty"; calibrate = false }
    :: List.map
         (fun (variant, spans) ->
           { variant; spans; n = wl.cycle; first_slot = 0; tag = "window"; calibrate = false })
         items
  in
  fun history ->
    match List.nth_opt all (List.length history) with Some i -> Run i | None -> Stop

(* The traced run's timing phase: a warm-up cycle, then rounds in which
   every (variant, spans) item runs one batch over the same input slots,
   until [seconds] have passed. *)
let rounds_plan (wl : workload) (items : (variant * bool) list) ~seconds : plan =
  let per_round = List.length items in
  fun history ->
    match List.rev history with
    | [] ->
        Run
          {
            variant = Kamping_traced;
            spans = false;
            n = wl.cycle;
            first_slot = 0;
            tag = "warmup";
            calibrate = false;
          }
    | warm :: rest ->
        let k = List.length rest in
        if k mod per_round = 0 && elapsed_since warm.after >= seconds then Stop
        else
          let n = batch_size ~target:0.02 ~ns:(warm.after.wall_ns - warm.before.wall_ns) ~n:wl.cycle in
          let round = k / per_round in
          let variant, spans = List.nth items (k mod per_round) in
          Run { variant; spans; n; first_slot = round * n mod wl.cycle; tag = "peel"; calibrate = false }
