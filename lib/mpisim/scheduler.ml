(* Cooperative fiber scheduler built on OCaml effects.

   Each simulated rank runs as a fiber.  A fiber blocks by performing
   [Park { poll; describe }]: the scheduler parks it and re-polls it on
   subsequent passes; when [poll] returns [Some v] the fiber resumes with
   [v].  Scheduling is deterministic round-robin, so simulations are
   reproducible.

   Deadlock detection: if a full pass over all live fibers runs nothing and
   the caller-supplied progress counter has not moved, no poll can ever
   succeed again (all state changes come from fibers), so the scheduler
   reports a deadlock with each parked fiber's description.

   Timing: the caller may supply [on_segment], which receives the real
   monotonic CPU time of every executed fiber segment — this feeds the
   hybrid clock's "measured compute" component.  Without it the
   sequential scheduler reads no clock at all: a fiber switch then costs
   neither a [gettimeofday] nor a boxed timestamp. *)

type 'a poll = unit -> 'a option

type _ Effect.t +=
  | Park : { poll : 'a poll; describe : unit -> string } -> 'a Effect.t
  | Yield : unit Effect.t

exception Aborted of { rank : int; exn : exn; backtrace : Printexc.raw_backtrace }

exception
  Deadlock of { parked : (int * string) list; finished : int; total : int }

let () =
  Printexc.register_printer (function
    | Deadlock { parked; finished; total } ->
        let parked_desc =
          parked
          |> List.map (fun (r, d) -> Printf.sprintf "  rank %d: %s" r d)
          |> String.concat "\n"
        in
        Some
          (Printf.sprintf
             "Deadlock: %d/%d fibers finished, %d parked with no possible progress:\n%s"
             finished total (List.length parked) parked_desc)
    | Aborted { rank; exn; _ } ->
        Some (Printf.sprintf "rank %d raised: %s" rank (Printexc.to_string exn))
    | _ -> None)

(* Block the current fiber until [poll] returns [Some v]; returns [v].
   Fast path: if the poll succeeds immediately, no parking happens. *)
let park ~describe ~poll = Effect.perform (Park { poll; describe })

(* Let other fibers run once. *)
let yield () = Effect.perform Yield

type outcome = Finished | Raised of exn * Printexc.raw_backtrace

type parked =
  | Parked : {
      poll : 'a poll;
      describe : unit -> string;
      k : ('a, unit) Effect.Deep.continuation;
      parked_at : float;  (* wall clock at park; 0. when hooks are off *)
    }
      -> parked

type state = Ready of (unit -> unit) | Waiting of parked | Done of outcome

let now () = Unix.gettimeofday ()

type t = {
  states : state array;
  mutable live : int;
  mutable current : int;
  on_segment : int -> float -> unit;
  timed : bool;  (* [on_segment] was supplied: time every segment *)
  mutable seg_start : float;
  (* Park/resume observability hooks.  [track_park] gates the extra
     gettimeofday per park so unhooked runs pay nothing. *)
  on_park : int -> unit;
  on_resume : int -> float -> unit;  (* rank, wall seconds parked *)
  track_park : bool;
  (* A fiber may exit by raising [kill_filter]-matching exceptions without
     aborting the whole simulation (process-failure injection). *)
  kill_filter : exn -> bool;
}

let close_segment t =
  if t.current >= 0 then begin
    if t.timed then t.on_segment t.current (now () -. t.seg_start);
    t.current <- -1
  end

let open_segment t rank =
  t.current <- rank;
  if t.timed then t.seg_start <- now ()

let handler (t : t) (rank : int) : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        close_segment t;
        t.states.(rank) <- Done Finished;
        t.live <- t.live - 1);
    exnc =
      (fun exn ->
        let bt = Printexc.get_raw_backtrace () in
        close_segment t;
        t.states.(rank) <- Done (Raised (exn, bt));
        t.live <- t.live - 1);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Park { poll; describe } ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                match poll () with
                | Some v -> Effect.Deep.continue k v
                | None ->
                    close_segment t;
                    let parked_at =
                      if t.track_park then begin
                        t.on_park rank;
                        now ()
                      end
                      else 0.
                    in
                    t.states.(rank) <- Waiting (Parked { poll; describe; k; parked_at }))
        | Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                close_segment t;
                (* Always-ready poll: the fiber resumes on the next pass,
                   after every other runnable fiber has had a turn.  Being
                   always ready, it can never trip deadlock detection.
                   Yields are voluntary, not waits, so park hooks skip
                   them. *)
                t.states.(rank) <-
                  Waiting
                    (Parked
                       {
                         poll = (fun () -> Some ());
                         describe = (fun () -> "yield");
                         k;
                         parked_at = 0.;
                       }))
        | _ -> None);
  }

let start_fiber t rank thunk =
  open_segment t rank;
  Effect.Deep.match_with thunk () (handler t rank)

let resume_fiber (type a) t rank (k : (a, unit) Effect.Deep.continuation) (v : a) =
  open_segment t rank;
  Effect.Deep.continue k v

let discontinue_fiber t rank (Parked { k; _ }) exn =
  open_segment t rank;
  (try Effect.Deep.discontinue k exn
   with _ ->
     close_segment t;
     (match t.states.(rank) with
     | Done _ -> ()
     | _ ->
         t.states.(rank) <- Done (Raised (exn, Printexc.get_callstack 0));
         t.live <- t.live - 1));
  match t.states.(rank) with
  | Done _ -> ()
  | _ ->
      t.states.(rank) <- Done (Raised (exn, Printexc.get_callstack 0));
      t.live <- t.live - 1

exception Abandoned_fiber

(* Run [nfibers] fibers executing [body rank] to completion.

   [progress] must return a monotone counter that changes whenever shared
   simulation state changes (message injected, matched, ...); it drives
   deadlock detection.  [kill_filter exn] returns true for exceptions that
   represent an injected process failure: such fibers end in [Raised] but do
   not abort the other fibers.

   [wake_check rank] is consulted before polling a parked fiber: [Some exn]
   discontinues the fiber with [exn] instead of resuming it.  This is how
   fault injection reaches a victim that is blocked in a receive — the poll
   could never succeed (nobody will send to a dead rank), so without the
   hook the kill would only surface as a deadlock. *)
let run ?on_segment ?on_park ?on_resume
    ?(kill_filter = fun _ -> false) ?(wake_check = fun _ -> None)
    ?(on_quiescence = fun () -> false) ~progress ~nfibers (body : int -> unit) :
    outcome array =
  if nfibers <= 0 then invalid_arg "Scheduler.run: nfibers must be positive";
  let track_park = on_park <> None || on_resume <> None in
  let t =
    {
      states = Array.init nfibers (fun r -> Ready (fun () -> body r));
      live = nfibers;
      current = -1;
      on_segment = (match on_segment with Some f -> f | None -> fun _ _ -> ());
      timed = on_segment <> None;
      on_park = (match on_park with Some f -> f | None -> fun _ -> ());
      on_resume = (match on_resume with Some f -> f | None -> fun _ _ -> ());
      track_park;
      seg_start = 0.;
      kill_filter;
    }
  in
  let fatal : (int * exn * Printexc.raw_backtrace) option ref = ref None in
  let check_fatal rank =
    match t.states.(rank) with
    | Done (Raised (exn, bt)) when not (kill_filter exn) ->
        if !fatal = None then fatal := Some (rank, exn, bt)
    | Done _ | Ready _ | Waiting _ -> ()
  in
  let abort_parked () =
    Array.iteri
      (fun rank st ->
        match st with
        | Waiting p -> discontinue_fiber t rank p Abandoned_fiber
        | Ready _ ->
            t.states.(rank) <- Done (Raised (Abandoned_fiber, Printexc.get_callstack 0));
            t.live <- t.live - 1
        | Done _ -> ())
      t.states
  in
  let rec loop () =
    if t.live = 0 then ()
    else begin
      let progress_before = progress () in
      let ran = ref false in
      for rank = 0 to nfibers - 1 do
        if !fatal = None then begin
          match t.states.(rank) with
          | Ready thunk ->
              ran := true;
              start_fiber t rank thunk;
              check_fatal rank
          | Waiting (Parked p as parked) -> begin
              match wake_check rank with
              | Some exn ->
                  ran := true;
                  discontinue_fiber t rank parked exn;
                  check_fatal rank
              | None -> (
              match p.poll () with
              | Some v ->
                  ran := true;
                  (* Yield parks carry [parked_at = 0.] and are not real
                     waits; skip the resume hook for them. *)
                  if t.track_park && p.parked_at > 0. then
                    t.on_resume rank (now () -. p.parked_at);
                  resume_fiber t rank p.k v;
                  check_fatal rank
              | None -> ())
            end
          | Done _ -> ()
        end
      done;
      match !fatal with
      | Some (rank, exn, backtrace) ->
          abort_parked ();
          raise (Aborted { rank; exn; backtrace })
      | None ->
          if t.live = 0 then ()
          else if (not !ran) && progress () = progress_before then begin
            (* Quiescence: no fiber ran and nothing changed.  Give the
               model checker's resolver one chance to apply a deferred
               match decision (which must bump [progress]); only if it
               declines is this a genuine deadlock. *)
            if on_quiescence () then loop ()
            else begin
            let parked =
              Array.to_list t.states
              |> List.mapi (fun r st ->
                     match st with
                     | Waiting (Parked { describe; _ }) -> Some (r, describe ())
                     | Ready _ | Done _ -> None)
              |> List.filter_map Fun.id
            in
            let finished =
              Array.fold_left
                (fun acc st -> match st with Done _ -> acc + 1 | _ -> acc)
                0 t.states
            in
            abort_parked ();
            raise (Deadlock { parked; finished; total = nfibers })
            end
          end
          else loop ()
    end
  in
  loop ();
  Array.map
    (function
      | Done o -> o
      | Ready _ | Waiting _ -> assert false)
    t.states

(* ================================================================== *)
(* Multicore backend: a fixed pool of OCaml 5 domains executing the
   runnable fibers of each round concurrently.

   Round structure (the determinism barrier):

   1. Poll phase — the coordinator alone, with every worker idle at the
      barrier, scans all fibers: [Ready] fibers and parked fibers whose
      poll succeeds become this round's runnable set.  Polls may have
      side effects (consume a matched message); running them with no
      fiber executing means they need no locking and fire in rank order,
      exactly like the sequential scheduler.
   2. Virtual-time gate — only fibers within [lookahead] of the earliest
      runnable fiber's virtual clock run this round; the rest stay
      queued and the barrier advances to them once the early group
      parks.  The default lookahead is infinite (every runnable fiber
      may run), which is safe because fibers synchronize through the
      runtime's own locks; a finite [MPISIM_LOOKAHEAD] trades
      parallelism for tighter timestamp grouping.
   3. Execute phase — the runnable set is split into per-worker run
      queues; each worker drains its own queue head-first
      (fetch-and-add claim) and then steals from the other workers'
      queues (Chase-Lev-style: all claims go through the same atomic
      head, so a task runs exactly once).  The coordinator participates
      as worker 0.
   4. Barrier — the coordinator waits for every worker; mutex/condvar
      hand-off makes all fiber-state writes of the round visible before
      the next poll phase.

   Per-rank ownership invariant: a rank appears at most once in the
   runnable set, so its fiber runs on exactly one domain at a time
   (asserted per execution).  All rank-owned state — clocks, busy and
   blocked accounting, Lamport clocks, trace rings — therefore needs no
   locks; cross-rank mutations go through the runtime lock
   ({!Runtime.locked}).

   Deadlock detection is unchanged: a round whose poll phase finds
   nothing runnable while the global progress epoch is stationary can
   never make progress again (all state changes come from fibers, and
   none ran). *)

(* Per-fiber execution context: written only by the domain currently
   running the fiber; [px_running] asserts the one-domain-at-a-time
   invariant. *)
type pexec = {
  px_rank : int;
  mutable px_seg_start : float;
  mutable px_parked_at : float;
  px_running : bool Atomic.t;
}

type ptask = { pt_rank : int; pt_time : float; pt_run : unit -> unit }

(* Round hand-off between the coordinator and the worker domains. *)
type pshared = {
  ps_mutex : Mutex.t;
  ps_cond : Condition.t;
  mutable ps_round : int;  (* generation counter; bumping it releases workers *)
  mutable ps_tasks : ptask array;
  mutable ps_heads : int Atomic.t array;  (* per-worker claim head, slice-relative *)
  mutable ps_bounds : (int * int) array;  (* per-worker [lo, hi) slice of ps_tasks *)
  mutable ps_done : int;
  mutable ps_stop : bool;
  ps_workers : int;  (* participants, coordinator included *)
}

let default_lookahead () =
  match Sys.getenv_opt "MPISIM_LOOKAHEAD" with
  | None -> infinity
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some f when f >= 0. -> f
      | _ -> infinity)

(* Drain queue [q]: claim tasks through its atomic head until the slice
   is exhausted.  Claims are unique (fetch-and-add), so a task runs on
   exactly one domain even when several steal from the same queue. *)
let drain_queue sh q =
  let lo, hi = sh.ps_bounds.(q) in
  let rec go () =
    let h = Atomic.fetch_and_add sh.ps_heads.(q) 1 in
    if lo + h < hi then begin
      (sh.ps_tasks.(lo + h)).pt_run ();
      go ()
    end
  in
  go ()

let work_round sh w =
  drain_queue sh w;
  (* Own queue dry: steal from the other workers' queues. *)
  for v = 0 to sh.ps_workers - 1 do
    if v <> w then drain_queue sh v
  done

let worker_body sh w =
  let rec loop last =
    Mutex.lock sh.ps_mutex;
    while (not sh.ps_stop) && sh.ps_round = last do
      Condition.wait sh.ps_cond sh.ps_mutex
    done;
    let stop = sh.ps_stop in
    let rn = sh.ps_round in
    Mutex.unlock sh.ps_mutex;
    if not stop then begin
      work_round sh w;
      Mutex.lock sh.ps_mutex;
      sh.ps_done <- sh.ps_done + 1;
      if sh.ps_done >= sh.ps_workers then Condition.broadcast sh.ps_cond;
      Mutex.unlock sh.ps_mutex;
      loop rn
    end
  in
  loop 0

let run_parallel ?(on_segment = fun _ _ -> ()) ?on_park ?on_resume
    ?(kill_filter = fun _ -> false) ?(wake_check = fun _ -> None)
    ?(rank_time = fun _ -> 0.) ?lookahead ~domains ~progress ~nfibers
    (body : int -> unit) : outcome array =
  if nfibers <= 0 then invalid_arg "Scheduler.run_parallel: nfibers must be positive";
  if domains < 2 then invalid_arg "Scheduler.run_parallel: needs at least 2 domains";
  let lookahead = match lookahead with Some l -> l | None -> default_lookahead () in
  let track_park = on_park <> None || on_resume <> None in
  let on_park = match on_park with Some f -> f | None -> fun _ -> () in
  let on_resume = match on_resume with Some f -> f | None -> fun _ _ -> () in
  let states = Array.init nfibers (fun r -> Ready (fun () -> body r)) in
  let live = Atomic.make nfibers in
  let execs =
    Array.init nfibers (fun r ->
        { px_rank = r; px_seg_start = 0.; px_parked_at = 0.; px_running = Atomic.make false })
  in
  (* The effect handler mirrors the sequential one, with the global
     current/seg_start cells replaced by the fiber's own context (the
     executing domain owns it for the duration of the segment).  The
     park fast-path poll is dropped: polls run only in the coordinator's
     poll phase, so they never race with executing fibers. *)
  let close_segment e = on_segment e.px_rank (now () -. e.px_seg_start) in
  let end_execution e = Atomic.set e.px_running false in
  let phandler (e : pexec) : (unit, unit) Effect.Deep.handler =
    {
      retc =
        (fun () ->
          close_segment e;
          states.(e.px_rank) <- Done Finished;
          Atomic.decr live;
          end_execution e);
      exnc =
        (fun exn ->
          let bt = Printexc.get_raw_backtrace () in
          close_segment e;
          states.(e.px_rank) <- Done (Raised (exn, bt));
          Atomic.decr live;
          end_execution e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park { poll; describe } ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  close_segment e;
                  let parked_at =
                    if track_park then begin
                      on_park e.px_rank;
                      now ()
                    end
                    else 0.
                  in
                  states.(e.px_rank) <- Waiting (Parked { poll; describe; k; parked_at });
                  end_execution e)
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  close_segment e;
                  states.(e.px_rank) <-
                    Waiting
                      (Parked
                         {
                           poll = (fun () -> Some ());
                           describe = (fun () -> "yield");
                           k;
                           parked_at = 0.;
                         });
                  end_execution e)
          | _ -> None);
    }
  in
  let begin_execution e =
    (* One-domain-at-a-time invariant: a rank scheduled twice in a round
       (or claimed by two workers) would trip this. *)
    if not (Atomic.compare_and_set e.px_running false true) then
      invalid_arg "Scheduler.run_parallel: fiber scheduled on two domains";
    e.px_seg_start <- now ()
  in
  let start_task rank thunk =
    let e = execs.(rank) in
    {
      pt_rank = rank;
      pt_time = rank_time rank;
      pt_run =
        (fun () ->
          begin_execution e;
          Effect.Deep.match_with thunk () (phandler e));
    }
  in
  let resume_task (type a) rank (k : (a, unit) Effect.Deep.continuation) (v : a)
      ~parked_at =
    let e = execs.(rank) in
    {
      pt_rank = rank;
      pt_time = rank_time rank;
      pt_run =
        (fun () ->
          if track_park && parked_at > 0. then on_resume rank (now () -. parked_at);
          begin_execution e;
          Effect.Deep.continue k v);
    }
  in
  (* Failed discontinues run on the coordinator with no worker active,
     so the sequential-style bookkeeping below is safe. *)
  let discontinue rank (Parked { k; _ }) exn =
    let e = execs.(rank) in
    begin_execution e;
    (try Effect.Deep.discontinue k exn
     with _ -> (
       match states.(rank) with
       | Done _ -> ()
       | _ ->
           states.(rank) <- Done (Raised (exn, Printexc.get_callstack 0));
           Atomic.decr live;
           end_execution e));
    match states.(rank) with
    | Done _ -> ()
    | _ ->
        states.(rank) <- Done (Raised (exn, Printexc.get_callstack 0));
        Atomic.decr live;
        end_execution e
  in
  let abort_parked () =
    Array.iteri
      (fun rank st ->
        match st with
        | Waiting p -> discontinue rank p Abandoned_fiber
        | Ready _ ->
            states.(rank) <- Done (Raised (Abandoned_fiber, Printexc.get_callstack 0));
            Atomic.decr live
        | Done _ -> ())
      states
  in
  let sh =
    {
      ps_mutex = Mutex.create ();
      ps_cond = Condition.create ();
      ps_round = 0;
      ps_tasks = [||];
      ps_heads = [||];
      ps_bounds = [||];
      ps_done = 0;
      ps_stop = false;
      ps_workers = domains;
    }
  in
  let workers =
    Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker_body sh (i + 1)))
  in
  let dispatch (tasks : ptask array) =
    if Array.length tasks = 1 then (tasks.(0)).pt_run ()
    else begin
      let n = Array.length tasks in
      let nw = sh.ps_workers in
      let chunk = (n + nw - 1) / nw in
      Mutex.lock sh.ps_mutex;
      sh.ps_tasks <- tasks;
      sh.ps_heads <- Array.init nw (fun _ -> Atomic.make 0);
      sh.ps_bounds <- Array.init nw (fun w -> (min n (w * chunk), min n ((w + 1) * chunk)));
      sh.ps_done <- 0;
      sh.ps_round <- sh.ps_round + 1;
      Condition.broadcast sh.ps_cond;
      Mutex.unlock sh.ps_mutex;
      work_round sh 0;
      Mutex.lock sh.ps_mutex;
      sh.ps_done <- sh.ps_done + 1;
      while sh.ps_done < sh.ps_workers do
        Condition.wait sh.ps_cond sh.ps_mutex
      done;
      Mutex.unlock sh.ps_mutex
    end
  in
  let shutdown () =
    Mutex.lock sh.ps_mutex;
    sh.ps_stop <- true;
    Condition.broadcast sh.ps_cond;
    Mutex.unlock sh.ps_mutex;
    Array.iter Domain.join workers
  in
  let fatal : (int * exn * Printexc.raw_backtrace) option ref = ref None in
  let scan_fatal () =
    Array.iteri
      (fun rank st ->
        match st with
        | Done (Raised (exn, bt)) when not (kill_filter exn) ->
            if !fatal = None then fatal := Some (rank, exn, bt)
        | Done _ | Ready _ | Waiting _ -> ())
      states
  in
  let deadlock () =
    let parked =
      Array.to_list states
      |> List.mapi (fun r st ->
             match st with
             | Waiting (Parked { describe; _ }) -> Some (r, describe ())
             | Ready _ | Done _ -> None)
      |> List.filter_map Fun.id
    in
    let finished =
      Array.fold_left
        (fun acc st -> match st with Done _ -> acc + 1 | _ -> acc)
        0 states
    in
    abort_parked ();
    raise (Deadlock { parked; finished; total = nfibers })
  in
  (* Virtual-time barrier state: fibers at or below the admission cutoff
     may be polled and run; the floor only ever advances.  With the
     default infinite lookahead every live fiber is always admitted. *)
  let barrier_floor = ref neg_infinity in
  let rec loop () =
    if Atomic.get live = 0 then ()
    else begin
      let progress_before = progress () in
      (* Admission cutoff for this round.  The gate applies BEFORE
         polling: a successful poll may consume shared state, so a fiber
         beyond the cutoff must not be polled at all this round. *)
      let cutoff =
        if lookahead = infinity then infinity
        else begin
          let tmin = ref infinity in
          Array.iteri
            (fun rank st ->
              match st with
              | Done _ -> ()
              | Ready _ | Waiting _ ->
                  let tr = rank_time rank in
                  if tr < !tmin then tmin := tr)
            states;
          Float.max !barrier_floor (!tmin +. lookahead)
        end
      in
      (* Poll phase: collect this round's runnable set in rank order. *)
      let woke = ref false in
      let deferred = ref infinity in  (* earliest gated-out virtual time *)
      let runnable = ref [] in
      let n_runnable = ref 0 in
      for rank = 0 to nfibers - 1 do
        if !fatal = None then begin
          match states.(rank) with
          | Done _ -> ()
          | (Ready _ | Waiting _) when rank_time rank > cutoff ->
              let tr = rank_time rank in
              if tr < !deferred then deferred := tr
          | Ready thunk ->
              runnable := start_task rank thunk :: !runnable;
              incr n_runnable
          | Waiting (Parked p as parked) -> begin
              match wake_check rank with
              | Some exn ->
                  woke := true;
                  discontinue rank parked exn;
                  (match states.(rank) with
                  | Done (Raised (exn, bt)) when not (kill_filter exn) ->
                      if !fatal = None then fatal := Some (rank, exn, bt)
                  | _ -> ())
              | None -> (
                  match p.poll () with
                  | Some v ->
                      runnable :=
                        resume_task rank p.k v ~parked_at:p.parked_at :: !runnable;
                      incr n_runnable
                  | None -> ())
            end
        end
      done;
      match !fatal with
      | Some (rank, exn, backtrace) ->
          abort_parked ();
          shutdown ();
          raise (Aborted { rank; exn; backtrace })
      | None ->
          if !n_runnable = 0 then begin
            if Atomic.get live = 0 then ()
            else if !woke || progress () <> progress_before then loop ()
            else if !deferred < infinity then begin
              (* Nothing admitted could run, but fibers sit beyond the
                 virtual-time barrier: advance it to the earliest of
                 them and retry.  Monotone, so detection still
                 terminates. *)
              barrier_floor := !deferred;
              loop ()
            end
            else begin
              (* [deadlock] always raises; stop the workers first. *)
              shutdown ();
              deadlock ()
            end
          end
          else begin
            dispatch (Array.of_list (List.rev !runnable));
            scan_fatal ();
            match !fatal with
            | Some (rank, exn, backtrace) ->
                abort_parked ();
                shutdown ();
                raise (Aborted { rank; exn; backtrace })
            | None -> loop ()
          end
    end
  in
  loop ();
  shutdown ();
  Array.map
    (function
      | Done o -> o
      | Ready _ | Waiting _ -> assert false)
    states
