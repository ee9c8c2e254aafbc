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

