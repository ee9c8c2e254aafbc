(* Bounded schedule-space model checker.

   The simulator's only source of schedule nondeterminism on a real MPI
   is the wildcard-receive match choice (everything else — round-robin
   fiber order, virtual-only clocks, zero-cost network — is fixed per
   decision script).  Each explored run turns on wildcard deferral in its
   own mailboxes, and the scheduler's quiescence hook resolves them one
   at a time: the program runs until no fiber can move, the resolver
   picks a candidate for the oldest deferred receive that has one, and
   scheduling continues.  Each resolution is a recorded decision; a
   decision script replays a schedule bit-exactly.

   Exploration is ISP/MOPPER-style lazy matching with non-overtaking
   pruning: the candidate set of a decision is the *head* of each
   matching per-(src, tag) unexpected queue (deeper messages cannot be
   matched first on any real MPI — that is the sleep-set-style reduction;
   their count is reported as [pruned]), so two interleavings differing
   only in same-link delivery order collapse into one explored schedule.
   The frontier is breadth-first over decision prefixes — schedule [s]
   spawns [s @ [j]] for every alternative [j] at every decision at
   position >= |s|, which enumerates every decision sequence exactly
   once — so the first script that exhibits a violation is also a
   minimal replayable witness for it.

   Every run executes under the Heavy sanitizer with virtual-only clocks
   and the zero-cost network, so findings come from the same Check
   registry as Mpicheck and runs are bit-exactly reproducible. *)

type violation = {
  v_class : string;  (* "deadlock" | a Check class | exception name *)
  v_rank : int;  (* rank the violation anchors on; -1 = whole run *)
  v_detail : string;
  v_script : int list;  (* minimal decision trace replaying this *)
}

type run_outcome = Completed | Violated of { cls : string; rank : int; detail : string }

type result_t = {
  explored : int;  (* schedules executed *)
  pruned : int;  (* match alternatives removed by non-overtaking *)
  truncated : bool;  (* hit max_schedules before exhausting the space *)
  violations : violation list;  (* one witness per violation class *)
  max_branching : int;  (* widest decision point seen *)
  deadlock_free : bool;  (* no schedule deadlocked (meaningful if not truncated) *)
  match_deterministic : bool;  (* no decision ever had >= 2 candidates *)
}

let default_max_schedules = 10_000

(* Classify how one schedule ended.  Check violations surface wrapped in
   [Scheduler.Aborted] when raised inside a fiber and bare when raised by
   the finalize scan; deadlock surfaces as [Mpi_error Err_deadlock]
   (Check is always on here) with the named wait-for cycle as detail. *)
let classify = function
  | Errdefs.Check_violation { check; rank; msg } ->
      Violated { cls = check; rank; detail = msg }
  | Scheduler.Aborted { exn = Errdefs.Check_violation { check; rank; msg }; _ } ->
      Violated { cls = check; rank; detail = msg }
  | Errdefs.Mpi_error { code = Errdefs.Err_deadlock; msg } ->
      Violated { cls = "deadlock"; rank = -1; detail = msg }
  | Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_deadlock; msg }; _ }
    ->
      Violated { cls = "deadlock"; rank = -1; detail = msg }
  | Scheduler.Deadlock _ as exn ->
      Violated { cls = "deadlock"; rank = -1; detail = Printexc.to_string exn }
  | Scheduler.Aborted { rank; exn; _ } ->
      Violated { cls = Printexc.exn_slot_name exn; rank; detail = Printexc.to_string exn }
  | exn -> Violated { cls = Printexc.exn_slot_name exn; rank = -1; detail = Printexc.to_string exn }

(* Execute one schedule of [body] under the given decision script.
   Returns the outcome plus the full decision log and pruned count of
   this run. *)
let run_one ?(check_level = Check.Heavy) ~ranks ~script body =
  let ctl = Choice.create ~script in
  let rt_ref = ref None in
  let resolve () =
    match !rt_ref with
    | None -> false
    | Some rt -> (
        (* The oldest deferred wildcard receive (lowest rank, then
           posting order) that has at least one candidate: resolve it
           with the scripted choice.  No such site means quiescence is
           a genuine deadlock — fall through to detection. *)
        let found = ref None in
        (try
           Array.iteri
             (fun rank mb ->
               Mailbox.iter_deferred mb (fun p ->
                   if !found = None then begin
                     let heads, pruned =
                       Mailbox.candidate_heads mb ~context:p.Mailbox.p_context
                         ~src:p.Mailbox.p_src ~tag:p.Mailbox.p_tag
                     in
                     if heads <> [] then begin
                       found := Some (rank, mb, p, heads, pruned);
                       raise Exit
                     end
                   end))
             rt.Runtime.mailboxes
         with Exit -> ());
        match !found with
        | None -> false
        | Some (rank, mb, p, heads, pruned) ->
            let j =
              Choice.next ctl ~rank ~pid:p.Mailbox.p_id ~ncand:(List.length heads) ~pruned
            in
            Mailbox.resolve_deferred mb p (List.nth heads j);
            (* The poll of the resolved receive can now succeed; bump
               progress so the scheduler pass is not seen as stuck. *)
            Runtime.bump_progress rt;
            true)
  in
  (* Deferral is switched on in this run's mailboxes only, before any
     fiber runs. *)
  let on_runtime rt =
    rt_ref := Some rt;
    Array.iter (fun mb -> Mailbox.set_defer_wildcards mb true) rt.Runtime.mailboxes
  in
  let outcome =
    match
      Engine.run ~model:Net_model.zero_cost ~clock_mode:Runtime.Virtual_only ~check_level
        ~on_runtime ~on_quiescence:resolve ~ranks body
    with
    | (_ : Engine.report) -> Completed
    | exception exn -> classify exn
  in
  (outcome, Choice.decisions ctl, Choice.pruned ctl)

(* Explore all non-equivalent schedules of [body], breadth-first, up to
   [max_schedules].  Collects one (minimal, by BFS) witness script per
   violation class. *)
let explore ?(max_schedules = default_max_schedules) ?check_level ~ranks body : result_t =
  let frontier = Queue.create () in
  Queue.add [] frontier;
  let explored = ref 0 in
  let pruned = ref 0 in
  let truncated = ref false in
  let max_branching = ref 0 in
  let deadlocked = ref false in
  let violations : (string, violation) Hashtbl.t = Hashtbl.create 8 in
  while not (Queue.is_empty frontier) do
    if !explored >= max_schedules then begin
      truncated := true;
      Queue.clear frontier
    end
    else begin
      let script = Queue.pop frontier in
      incr explored;
      let outcome, decisions, run_pruned = run_one ?check_level ~ranks ~script body in
      pruned := !pruned + run_pruned;
      List.iter
        (fun (d : Choice.decision) ->
          if d.Choice.d_ncand > !max_branching then max_branching := d.Choice.d_ncand)
        decisions;
      (match outcome with
      | Completed -> ()
      | Violated { cls; rank; detail } ->
          if cls = "deadlock" then deadlocked := true;
          if not (Hashtbl.mem violations cls) then
            Hashtbl.replace violations cls
              { v_class = cls; v_rank = rank; v_detail = detail; v_script = script });
      let chosen = List.map (fun (d : Choice.decision) -> d.Choice.d_chosen) decisions in
      (* A decision with two or more candidates IS the wildcard race,
         made visible: which message the receive returns depends on the
         schedule.  Witness: the prefix script that drives a replay to
         exactly that decision point. *)
      (let rec first_wide i = function
         | [] -> ()
         | (d : Choice.decision) :: rest ->
             if d.Choice.d_ncand >= 2 then begin
               if not (Hashtbl.mem violations "nondet-match") then
                 Hashtbl.replace violations "nondet-match"
                   {
                     v_class = "nondet-match";
                     v_rank = d.Choice.d_rank;
                     v_detail =
                       Printf.sprintf
                         "wildcard receive (rank %d, post %d) had %d concurrent match \
                          candidates: which message it returns depends on the schedule"
                         d.Choice.d_rank d.Choice.d_pid d.Choice.d_ncand;
                     v_script = List.filteri (fun k _ -> k < i) chosen;
                   }
             end
             else first_wide (i + 1) rest
       in
       first_wide 0 decisions);
      (* Branch: alternatives of every decision made at or beyond this
         script's own length.  Decisions before |script| were forced by
         the script and already branched by an ancestor — re-branching
         them would enumerate duplicate schedules. *)
      let base = List.length script in
      List.iteri
        (fun i (d : Choice.decision) ->
          if i >= base then
            for j = 0 to d.Choice.d_ncand - 1 do
              if j <> d.Choice.d_chosen then
                Queue.add (List.filteri (fun k _ -> k < i) chosen @ [ j ]) frontier
            done)
        decisions
    end
  done;
  let violations =
    Hashtbl.fold (fun _ v acc -> v :: acc) violations []
    |> List.sort (fun a b -> compare a.v_class b.v_class)
  in
  {
    explored = !explored;
    pruned = !pruned;
    truncated = !truncated;
    violations;
    max_branching = !max_branching;
    deadlock_free = (not !deadlocked) && not !truncated;
    match_deterministic = !max_branching <= 1;
  }

(* Replay one decision script; returns how the schedule ended plus its
   decision log — the "minimal decision trace replays to the same
   finding" certificate (for [nondet-match] the finding is a decision
   with >= 2 candidates in the log, not an exception). *)
let replay ?check_level ~ranks ~script body = run_one ?check_level ~ranks ~script body

let outcome_class = function Completed -> "ok" | Violated { cls; _ } -> cls

(* The class a replayed (outcome, decisions) pair exhibits, mirroring
   [explore]'s classification: a raised violation wins; otherwise a
   decision with >= 2 candidates is the nondet-match finding. *)
let replay_class (outcome, decisions, _pruned) =
  match outcome with
  | Violated { cls; _ } -> cls
  | Completed ->
      if List.exists (fun (d : Choice.decision) -> d.Choice.d_ncand >= 2) decisions then
        "nondet-match"
      else "ok"

let pp_result ppf r =
  Format.fprintf ppf
    "schedules explored: %d%s; alternatives pruned (non-overtaking): %d; max branching: \
     %d@."
    r.explored
    (if r.truncated then " (truncated)" else "")
    r.pruned r.max_branching;
  if r.violations = [] then begin
    if r.truncated then
      Format.fprintf ppf "no violation within the bound (space not exhausted)@."
    else begin
      Format.fprintf ppf "certified deadlock-free over all explored schedules@.";
      if r.match_deterministic then
        Format.fprintf ppf "certified match-deterministic (no wildcard ambiguity)@."
      else
        Format.fprintf ppf
          "match-nondeterministic: wildcard choices exist but no schedule violates@."
    end
  end
  else
    List.iter
      (fun v ->
        Format.fprintf ppf "VIOLATION [%s]%s: %s@.  replay: --replay '%s'@." v.v_class
          (if v.v_rank >= 0 then Printf.sprintf " rank %d" v.v_rank else "")
          v.v_detail
          (Choice.script_to_string v.v_script))
      r.violations
