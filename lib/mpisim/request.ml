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

(* A rank's schedules in flight, and the wait slot of its blocked call:
   the closures a blocked rank parks on are built once, here, and read
   what the blocked call stored in the mutable fields. *)
type inflight = {
  mutable scheds : sched list;
  mutable until : unit -> bool;  (* the blocked call's own wake rule *)
  woken : unit -> bool;  (* [until], or a schedule can take a step *)
  mutable awaited : unit -> string;  (* describes the request [wait] blocks on *)
  wait_describe : unit -> string;
  mutable any : t array;  (* the requests [wait_any] blocks on *)
  any_ready : unit -> bool;
  any_describe : unit -> string;
}

and t = {
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

let never () = false

let rec wakes_any = function [] -> false | s :: rest -> s.wakes () || wakes_any rest

(* The first of [arr] from [i] on that is inactive or ready, or -1. *)
let rec first_ready arr i =
  if i >= Array.length arr then -1
  else if arr.(i).status != pending || arr.(i).ready () then i
  else first_ready arr (i + 1)

let inflight () =
  let rec q =
    {
      scheds = [];
      until = never;
      woken = (fun () -> q.until () || wakes_any q.scheds);
      awaited = (fun () -> "");
      wait_describe = (fun () -> "wait: " ^ q.awaited ());
      any = [||];
      any_ready = (fun () -> first_ready q.any 0 >= 0);
      any_describe =
        (fun () -> Printf.sprintf "wait_any over %d requests" (Array.length q.any));
    }
  in
  q

let enlist q s = q.scheds <- q.scheds @ [ s ]

(* Step every schedule in order, dropping (and so copying) only finished ones. *)
let rec step_all = function
  | [] -> []
  | s :: rest as l ->
      let finished = s.step () in
      let rest' = step_all rest in
      if finished then rest' else if rest' == rest then l else s :: rest'

let rec block q ~describe ~ready =
  match q.scheds with
  | [] -> Scheduler.wait ~describe ~ready
  | scheds ->
      q.scheds <- step_all scheds;
      if not (ready ()) then begin
        q.until <- ready;
        Scheduler.wait ~describe ~ready:q.woken;
        block q ~describe ~ready
      end

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

(* A request whose operation is already done completes without parking.
   One that waits parks on its own [ready] and its rank's [wait_describe]:
   no closure is built. *)
let wait t =
  if t.status != pending then inactive t
  else begin
    if not (t.ready ()) then begin
      let q = t.inflight in
      q.awaited <- t.describe;
      block q ~describe:q.wait_describe ~ready:t.ready
    end;
    complete t
  end

let wait_all ts = List.map wait ts

(* Wait until at least one request completes; returns its index and status.
   Raises [Invalid_argument] on an empty list. *)
let wait_any ts =
  if ts = [] then invalid_arg "Request.wait_any: empty";
  let arr = Array.of_list ts in
  let i =
    match first_ready arr 0 with
    | -1 ->
        let q = arr.(0).inflight in
        q.any <- arr;
        block q ~describe:q.any_describe ~ready:q.any_ready;
        q.any <- [||];
        first_ready arr 0
    | i -> i
  in
  let t = arr.(i) in
  (i, if t.status != pending then inactive t else complete t)

(* Complete every currently-ready request; returns (index, status) pairs.
   Does not block. *)
let test_some ts =
  List.mapi (fun i t -> (i, t)) ts
  |> List.filter_map (fun (i, t) ->
         match test t with Some s -> Some (i, s) | None -> None)
