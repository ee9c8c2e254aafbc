(* Top-level entry point: run an N-rank message-passing program.

   [run ~ranks body] executes [body world_comm] on every rank as a
   cooperative fiber, with deterministic scheduling, and returns a report
   with per-rank virtual completion times and the profiling summary.

   The virtual time of rank r combines the network model's communication
   costs with either measured per-segment CPU time ([Measured], the
   default) or explicitly charged compute ([Virtual_only]); see DESIGN.md.

   A fiber that raises aborts the whole run (the exception is re-raised,
   annotated with the rank) — except injected process failures
   ([Runtime.Process_killed]), which just mark the rank failed. *)

type report = {
  ranks : int;
  times : float array;  (* per-rank virtual completion time *)
  max_time : float;
  killed : int list;  (* ranks that died via failure injection *)
  profile : Profiling.summary;
  model : Net_model.t;
  busy : float array;  (* per-rank virtual time spent working *)
  blocked : float array;  (* per-rank virtual time spent waiting *)
  stats : Stats.t;  (* the runtime's metrics registry *)
  trace : Trace.t;  (* event recorder; empty unless a trace sink was set *)
  comm_matrix : Comm_matrix.t;  (* per-(src,dst) traffic; empty unless [comm_matrix] set *)
  chaos_log : string option;  (* chaos event log; replay-comparable, None when chaos off *)
}

let pp_report ppf r =
  Format.fprintf ppf "ranks=%d max_time=%a killed=[%s]" r.ranks Sim_time.pp r.max_time
    (String.concat "," (List.map string_of_int r.killed))

(* Run [body] on every rank; collect each rank's result ([None] for killed
   ranks).  Non-failure exceptions propagate as [Scheduler.Aborted].

   [trace_capacity] enables event tracing with a per-rank ring buffer of
   that many events; [trace_stream] streams every event to a binary file
   instead (no per-rank buffers, nothing dropped; the rings are not used
   when both are given); when neither is present the recorder stays disabled and costs
   nothing on the hot paths.  A stream capture also carries the
   happens-before analyzer's instants (post, matched, send_meta,
   nc_order), so every stream file is analyzable offline.  [comm_matrix]
   turns on the per-(src,dst) traffic matrix.

   Verification hooks: [on_runtime] observes the runtime right after
   creation (the model checker captures it to reach the mailboxes);
   [on_quiescence] is forwarded to {!Scheduler.run} — the point where
   deferred wildcard matches are resolved. *)
let run_collect ?(model = Net_model.omnipath) ?(clock_mode = Runtime.Measured) ?check_level
    ?chaos ?trace_capacity ?trace_stream ?(comm_matrix = false) ?on_runtime ?on_quiescence
    ~ranks (body : Comm.t -> 'a) : 'a option array * report =
  let rt = Runtime.create ~clock_mode ?check_level ?chaos ~model ~size:ranks () in
  (match on_runtime with Some f -> f rt | None -> ());
  (match trace_stream with
  | Some path -> Trace.enable_stream rt.Runtime.trace ~path
  | None -> (
      match trace_capacity with
      | Some capacity -> Trace.enable ~capacity rt.Runtime.trace
      | None -> ()));
  if comm_matrix then Comm_matrix.enable rt.Runtime.comm_matrix;
  Fun.protect
    ~finally:(fun () ->
      (* Flush the stream sink before control returns to the caller, so
         the file is complete (and convertible) even on an abort. *)
      Trace.close_stream rt.Runtime.trace)
    (fun () ->
      let world_shared = Comm.create_world rt in
      let results : 'a option array = Array.make ranks None in
      let fiber rank =
        let comm = Comm.attach rt world_shared ~rank in
        results.(rank) <- Some (body comm)
      in
      (* Park/resume hooks: only wired when tracing, so untraced runs skip
         the extra gettimeofday per park. *)
      let on_park, on_resume =
        if trace_capacity = None && trace_stream = None then (None, None)
        else
          ( Some
              (fun rank ->
                Trace.instant rt.Runtime.trace ~rank ~cat:"sched" ~name:"park" ~a:(-1)
                  ~b:(-1) ~c:(-1)),
            Some
              (fun rank wall ->
                Runtime.observe_park_wait rt wall;
                Trace.instant rt.Runtime.trace ~rank ~cat:"sched" ~name:"resume" ~a:(-1)
                  ~b:(-1) ~c:(-1)) )
      in
      (* Wake parked victims of injected failures: a rank killed while
         blocked in a receive would otherwise only surface as a deadlock.
         The [any_failed] guard keeps the common no-failure case to one
         load and branch per parked-fiber poll. *)
      let wake_check rank =
        if Runtime.any_failed rt && Runtime.is_failed rt rank then
          Some (Runtime.Process_killed rank)
        else None
      in
      let outcomes =
        try
          (* Virtual_only runs discard measured segments, so they are not
             timed at all. *)
          Scheduler.run
            ?on_segment:
              (match clock_mode with
              | Runtime.Measured -> Some (Runtime.on_cpu_segment rt)
              | Runtime.Virtual_only -> None)
            ?on_park ?on_resume
            ~kill_filter:Fault.is_kill_exn
            ~wake_check ?on_quiescence
            ~progress:(fun () -> Runtime.progress_count rt)
            ~nfibers:ranks fiber
        with
        | Scheduler.Deadlock { parked; finished; total }
          when Check.enabled rt.Runtime.check ->
            (* Upgrade the flat parked-fiber list to a named wait-for
               cycle built from the sanitizer's pending-operation table. *)
            Errdefs.mpi_error Errdefs.Err_deadlock "%s"
              (Check.deadlock_report rt.Runtime.check ~parked ~finished ~total)
      in
      let killed = ref [] in
      Array.iteri
        (fun rank outcome ->
          match outcome with
          | Scheduler.Finished -> ()
          | Scheduler.Raised (exn, _) when Fault.is_kill_exn exn ->
              killed := rank :: !killed
          | Scheduler.Raised (exn, bt) ->
              (* Unreachable: the scheduler aborts on non-kill failures. *)
              Printexc.raise_with_backtrace exn bt)
        outcomes;
      (* Sanitizer teardown scan (leaked requests, collective counts) —
         only meaningful for runs no rank of which was killed. *)
      if !killed = [] && Check.enabled rt.Runtime.check then
        Check.finalize_scan rt.Runtime.check;
      (* Streamed traces are complete once flushed; do it before the
         report so callers can convert the file immediately. *)
      Trace.close_stream rt.Runtime.trace;
      (* Per-algorithm traffic totals become comm.msgs.* / comm.bytes.*
         counters, so the matrix shows up in sorted --stats dumps. *)
      if Comm_matrix.enabled rt.Runtime.comm_matrix then
        Comm_matrix.publish_stats rt.Runtime.comm_matrix rt.Runtime.stats;
      let report =
        {
          ranks;
          times = Array.copy rt.Runtime.clocks;
          max_time = Runtime.max_clock rt;
          killed = List.rev !killed;
          profile = Profiling.snapshot rt.Runtime.profile;
          model;
          busy = Array.copy rt.Runtime.busy;
          blocked = Array.copy rt.Runtime.blocked;
          stats = rt.Runtime.stats;
          trace = rt.Runtime.trace;
          comm_matrix = rt.Runtime.comm_matrix;
          chaos_log = Option.map Chaos.log_contents rt.Runtime.chaos;
        }
      in
      (results, report))

(* [assertion_level] and [domains] are accepted for compatibility only:
   the commit and signature checks always run (stronger checks belong to
   [check_level]), and a run always executes on one domain (independent
   runs go through [run_many]). *)
let run ?model ?clock_mode ?assertion_level ?check_level ?chaos ?trace_capacity
    ?trace_stream ?comm_matrix ?on_runtime ?on_quiescence ?domains ~ranks
    (body : Comm.t -> unit) : report =
  (match assertion_level with
  | None | Some 1 -> ()
  | Some n ->
      raise
        (Errdefs.Usage_error
           (Printf.sprintf
              "assertion_level %d is not supported: the commit and signature checks are \
               always on; use check_level (off|light|heavy) for stronger checks"
              n)));
  (match domains with
  | None | Some 1 -> ()
  | Some n ->
      raise
        (Errdefs.Usage_error
           (Printf.sprintf
              "domains %d is not supported: a run executes on one domain; use \
               Engine.run_many to run independent simulations in parallel"
              n)));
  let _, report =
    run_collect ?model ?clock_mode ?check_level ?chaos ?trace_capacity ?trace_stream
      ?comm_matrix ?on_runtime ?on_quiescence ~ranks body
  in
  report

(* Convenience for tests: run and return every rank's value, requiring all
   ranks to survive. *)
let run_values ?model ?clock_mode ~ranks (body : Comm.t -> 'a) : 'a array =
  let results, report = run_collect ?model ?clock_mode ~ranks body in
  ignore report;
  Array.map
    (function
      | Some v -> v
      | None -> failwith "Engine.run_values: a rank was killed")
    results

(* Independent runs on a pool of domains.  Workers claim thunks by index
   from one atomic counter, the calling domain included, so the pool is
   never wider than the list.  Every thunk runs even when another raises:
   the exception re-raised is then the lowest-index one whatever the
   interleaving, and no domain is left running behind the caller. *)
let run_many (thunks : (unit -> 'a) list) : 'a list =
  let tasks = Array.of_list thunks in
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match tasks.(i) () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let width = min n (Domain.recommended_domain_count ()) in
  let helpers = List.init (max 0 (width - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.iter
    (function Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
    results;
  Array.to_list
    (Array.map (function Some (Ok v) -> v | Some (Error _) | None -> assert false) results)
