(* Request objects for nonblocking and persistent operations.

   A request separates cheap completion *detection* ([ready], safe to call
   from the scheduler's poll loop) from *finalization* ([finalize], which
   runs in the owning fiber: it unpacks data, updates the owner's clock and
   may raise failure errors).  A collective's schedule also supplies
   [advance], [test]'s in-fiber progress step.  A persistent request
   (MPI-4 [*_init]) is created inactive with a [start] that begins one
   cycle; the same completion calls finish it.

   One progress rule: every blocking wait of a rank goes through [block]
   with the rank's in-flight schedules, so a rank blocked in any call
   still progresses what it posted and no schedule blocks inside itself.

   Observer hook: the sanitizer ([Check]) may attach an observer that
   every completion entry point calls on a one-shot request that has
   already completed (an MPI "wait on inactive request", which MUST-style
   tools flag as a use of a freed request). *)

type observer = { on_rewait : unit -> unit }

type sched = { step : unit -> bool; wakes : unit -> bool }

type inflight = { mutable scheds : sched list }

type t = {
  mutable status : Status.t;  (* [pending] while active *)
  ready : unit -> bool;
  advance : unit -> bool;
  finalize : unit -> Status.t;
  describe : unit -> string;
  start : (unit -> unit) option;  (* [Some] for a persistent request *)
  inflight : inflight;
  mutable freed : bool;
  mutable observer : observer option;
}

let pending = Status.make ~source:(-1) ~tag:(-1) ~count:(-1) ~bytes:(-1)

let inflight () = { scheds = [] }

let enlist q s = q.scheds <- q.scheds @ [ s ]

(* Step every schedule in order, dropping (and so copying) only finished ones. *)
let rec step_all = function
  | [] -> []
  | s :: rest as l ->
      let finished = s.step () in
      let rest' = step_all rest in
      if finished then rest' else if rest' == rest then l else s :: rest'

let rec block q ~describe ~poll =
  match q.scheds with
  | [] -> Scheduler.park ~describe ~poll
  | scheds -> (
      q.scheds <- step_all scheds;
      match poll () with
      | Some v -> v
      | None ->
          Scheduler.park ~describe ~poll:(fun () ->
              match poll () with
              | Some _ -> Some ()
              | None ->
                  if List.exists (fun s -> s.wakes ()) q.scheds then Some () else None);
          block q ~describe ~poll)

let make ?start ?advance ~ready ~finalize ~describe inflight =
  {
    status = (match start with Some _ -> Status.empty | None -> pending);
    ready;
    advance = Option.value advance ~default:ready;
    finalize;
    describe;
    start;
    inflight;
    freed = false;
    observer = None;
  }

let set_observer t o = t.observer <- Some o

let describe t = t.describe ()

let is_complete t = t.status != pending

let start t =
  match t.start with
  | None ->
      Errdefs.usage_error "Request.start: %s is not a persistent request" (t.describe ())
  | Some begin_cycle ->
      if t.freed then
        Errdefs.usage_error "Request.start: %s has been freed" (t.describe ());
      if t.status == pending then
        Errdefs.usage_error "Request.start: %s is already active (wait it first)"
          (t.describe ());
      t.status <- pending;
      begin_cycle ()

let free t =
  if t.freed then Errdefs.usage_error "Request.free: %s already freed" (t.describe ());
  if t.status == pending then
    Errdefs.usage_error "Request.free: %s is still active (wait it first)" (t.describe ());
  t.freed <- true

(* Completion on an inactive request; on a one-shot one it is the misuse
   the observer reports. *)
let inactive t =
  (match (t.start, t.observer) with None, Some o -> o.on_rewait () | _ -> ());
  t.status

let complete t =
  let s = t.finalize () in
  t.status <- s;
  s

let test t =
  if t.status != pending then Some (inactive t)
  else if t.advance () then Some (complete t)
  else None

(* A request whose operation is already done completes without parking
   and builds no closure. *)
let wait t =
  if t.status != pending then inactive t
  else begin
    if not (t.ready ()) then
      block t.inflight
        ~describe:(fun () -> "wait: " ^ t.describe ())
        ~poll:(fun () -> if t.ready () then Some () else None);
    complete t
  end

let wait_all ts = List.map wait ts

(* Wait until at least one request completes; returns its index and status.
   Raises [Invalid_argument] on an empty list. *)
let wait_any ts =
  if ts = [] then invalid_arg "Request.wait_any: empty";
  let arr = Array.of_list ts in
  let find_ready () =
    let rec go i =
      if i >= Array.length arr then None
      else if arr.(i).status != pending || arr.(i).ready () then Some i
      else go (i + 1)
    in
    go 0
  in
  let i =
    match find_ready () with
    | Some i -> i
    | None ->
        block arr.(0).inflight
          ~describe:(fun () -> Printf.sprintf "wait_any over %d requests" (Array.length arr))
          ~poll:find_ready
  in
  let t = arr.(i) in
  (i, if t.status != pending then inactive t else complete t)

(* Complete every currently-ready request; returns (index, status) pairs.
   Does not block. *)
let test_some ts =
  List.mapi (fun i t -> (i, t)) ts
  |> List.filter_map (fun (i, t) ->
         match test t with Some s -> Some (i, s) | None -> None)
