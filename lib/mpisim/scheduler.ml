(* Cooperative fiber scheduler built on OCaml effects.

   Each simulated rank runs as a fiber.  A fiber blocks through its wait
   slot: it stores the [ready] and [describe] closures of what it waits
   for in the slot, then performs the one payload-free effect [Wait].
   The scheduler keeps only the continuation, re-polls the slot's
   [ready] on subsequent passes and resumes the fiber once it holds.  A
   yield is a wait on a static always-ready closure.  Scheduling is
   deterministic round-robin, so simulations are reproducible.

   A park allocates the continuation and its [Waiting] state and nothing
   else: the slot's closures are the waiter's own (built once, not per
   wait), the handler's effect case is built once per fiber, and the
   park time, only read by the park hooks, goes into a float array.

   The slots belong to the run.  A fiber finds its run through a
   domain-local pointer set while the run is executing and restored when
   it returns, so runs on several domains ([Engine.run_many]), and runs
   nested in a fiber, each fill their own slots.

   Deadlock detection: if a full pass over all live fibers runs nothing and
   the caller-supplied progress counter has not moved, no slot can ever
   become ready again (all state changes come from fibers), so the
   scheduler reports a deadlock with each waiting fiber's description.

   Timing: the caller may supply [on_segment], which receives the real
   monotonic CPU time of every executed fiber segment — this feeds the
   hybrid clock's "measured compute" component.  Without it the
   sequential scheduler reads no clock at all: a fiber switch then costs
   neither a [gettimeofday] nor a boxed timestamp. *)

type 'a poll = unit -> 'a option

(* The one effect: suspend the current fiber on its wait slot. *)
type _ Effect.t += Wait : unit Effect.t

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

type outcome = Finished | Raised of exn * Printexc.raw_backtrace

type state =
  | Ready of (unit -> unit)
  | Waiting of (unit, unit) Effect.Deep.continuation
  | Done of outcome

let now () = Unix.gettimeofday ()

type t = {
  states : state array;
  (* The wait slots, one per fiber: what the fiber waits for. *)
  ready : (unit -> bool) array;
  describe : (unit -> string) array;
  parked_at : float array;  (* wall clock at park; 0. for a yield or with hooks off *)
  mutable live : int;
  mutable current : int;  (* the fiber running now, -1 in scheduler context *)
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

(* What the domain runs outside any run: no fiber is current. *)
let idle =
  {
    states = [||];
    ready = [||];
    describe = [||];
    parked_at = [||];
    live = 0;
    current = -1;
    on_segment = (fun _ _ -> ());
    timed = false;
    seg_start = 0.;
    on_park = (fun _ -> ());
    on_resume = (fun _ _ -> ());
    track_park = false;
    kill_filter = (fun _ -> false);
  }

(* The run executing on this domain. *)
let running : t Domain.DLS.key = Domain.DLS.new_key (fun () -> idle)

let always_ready () = true

let yield_describe () = "yield"

(* Fill the current fiber's slot and suspend it.  A slot that already
   holds the closures is not rewritten: a yield loop, or a handle's
   receives, then skip the write barrier.  Outside a run there is no
   slot: the effect is then unhandled, as any effect without a
   handler. *)
let suspend ~describe ~ready =
  let t = Domain.DLS.get running in
  let rank = t.current in
  if rank >= 0 then begin
    if t.ready.(rank) != ready then t.ready.(rank) <- ready;
    if t.describe.(rank) != describe then t.describe.(rank) <- describe
  end;
  Effect.perform Wait

(* Block the current fiber until [ready ()] holds.  Fast path: a wait
   that is already over does not park. *)
let wait ~describe ~ready = if not (ready ()) then suspend ~describe ~ready

(* [wait] for a poll that returns a value.  The closure it parks on is
   built only when the first poll fails. *)
let park ~describe ~poll =
  match poll () with
  | Some v -> v
  | None -> (
      let got = ref None in
      suspend ~describe ~ready:(fun () ->
          match poll () with
          | Some _ as v ->
              got := v;
              true
          | None -> false);
      match !got with Some v -> v | None -> assert false)

(* Let other fibers run once: a wait on the always-ready slot. *)
let yield () = suspend ~describe:yield_describe ~ready:always_ready

let close_segment t =
  if t.current >= 0 then begin
    if t.timed then t.on_segment t.current (now () -. t.seg_start);
    t.current <- -1
  end

let open_segment t rank =
  t.current <- rank;
  if t.timed then t.seg_start <- now ()

(* The fiber's handler, its effect case built once.  A yield resumes on
   the next pass, after every other runnable fiber has had a turn; being
   always ready it can never trip deadlock detection, and the park hooks
   skip it: yields are voluntary, not waits. *)
let handler (t : t) (rank : int) : (unit, unit) Effect.Deep.handler =
  let on_wait =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        close_segment t;
        if t.track_park then
          if t.ready.(rank) == always_ready then t.parked_at.(rank) <- 0.
          else begin
            t.on_park rank;
            t.parked_at.(rank) <- now ()
          end;
        t.states.(rank) <- Waiting k)
  in
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
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Wait -> on_wait | _ -> None);
  }

let start_fiber t rank thunk =
  open_segment t rank;
  Effect.Deep.match_with thunk () (handler t rank)

let resume_fiber t rank k =
  open_segment t rank;
  Effect.Deep.continue k ()

let discontinue_fiber t rank k exn =
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

   [wake_check rank] is consulted before polling a waiting fiber: [Some exn]
   discontinues the fiber with [exn] instead of resuming it.  This is how
   fault injection reaches a victim that is blocked in a receive — the slot
   could never become ready (nobody will send to a dead rank), so without
   the hook the kill would only surface as a deadlock. *)
let run ?on_segment ?on_park ?on_resume
    ?(kill_filter = fun _ -> false) ?(wake_check = fun _ -> None)
    ?(on_quiescence = fun () -> false) ~progress ~nfibers (body : int -> unit) :
    outcome array =
  if nfibers <= 0 then invalid_arg "Scheduler.run: nfibers must be positive";
  let track_park = on_park <> None || on_resume <> None in
  let t =
    {
      states = Array.init nfibers (fun r -> Ready (fun () -> body r));
      ready = Array.make nfibers always_ready;
      describe = Array.make nfibers yield_describe;
      parked_at = Array.make nfibers 0.;
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
        | Waiting k -> discontinue_fiber t rank k Abandoned_fiber
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
          | Waiting k -> begin
              match wake_check rank with
              | Some exn ->
                  ran := true;
                  discontinue_fiber t rank k exn;
                  check_fatal rank
              | None ->
                  if t.ready.(rank) () then begin
                    ran := true;
                    (* Yields carry [parked_at = 0.] and are not real
                       waits; skip the resume hook for them. *)
                    if t.track_park && t.parked_at.(rank) > 0. then
                      t.on_resume rank (now () -. t.parked_at.(rank));
                    resume_fiber t rank k;
                    check_fatal rank
                  end
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
                     | Waiting _ -> Some (r, t.describe.(r) ())
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
  let outer = Domain.DLS.get running in
  Domain.DLS.set running t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set running outer) loop;
  Array.map
    (function
      | Done o -> o
      | Ready _ | Waiting _ -> assert false)
    t.states
