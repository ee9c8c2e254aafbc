(* Request objects for non-blocking operations.

   A request separates cheap completion *detection* ([ready], safe to call
   from the scheduler's poll loop) from *finalization* ([finalize], which
   runs in the owning fiber: it unpacks data, updates the owner's clock and
   may raise failure errors).  [test]/[wait] are idempotent after
   completion, per MPI semantics for inactive requests.

   An operation that makes progress in steps (a nonblocking collective's
   schedule) also supplies [advance]: it runs in the owning fiber, takes
   every step that is ready now, and says whether the operation is done.
   [test] calls it instead of [ready], so computation between tests
   overlaps the operation; for every other request it is [ready].

   Observer hook: the sanitizer ([Check]) may attach an observer to a
   request it tracks; every completion entry point — [wait], [test],
   [wait_any], [test_some] — reports through it when invoked on a request
   that has already completed (an MPI "wait on inactive request", which
   MUST-style tools flag as a use of a freed request).  Requests without an
   observer pay one pointer comparison. *)

type observer = { on_rewait : unit -> unit }

type t = {
  mutable status : Status.t option;
  ready : unit -> bool;
  advance : unit -> bool;
  finalize : unit -> Status.t;
  describe : unit -> string;
  mutable observer : observer option;
}

let make_stepped ~advance ~ready ~finalize ~describe =
  { status = None; ready; advance; finalize; describe; observer = None }

let make ~ready ~finalize ~describe = make_stepped ~advance:ready ~ready ~finalize ~describe

let set_observer t o = t.observer <- Some o

let describe t = t.describe ()

(* A request that is already complete (e.g. for empty transfers). *)
let completed status =
  {
    status = Some status;
    ready = (fun () -> true);
    advance = (fun () -> true);
    finalize = (fun () -> status);
    describe = (fun () -> "completed");
    observer = None;
  }

(* Shared by every entry point that touches an already-completed request:
   completion on an inactive request is the same misuse whether it arrives
   through [wait], [test], [wait_any] or [test_some]. *)
let notify_rewait t =
  match t.observer with Some o -> o.on_rewait () | None -> ()

let test t =
  match t.status with
  | Some s ->
      notify_rewait t;
      Some s
  | None ->
      if t.advance () then begin
        let s = t.finalize () in
        t.status <- Some s;
        Some s
      end
      else None

let wait t =
  match t.status with
  | Some s ->
      notify_rewait t;
      s
  | None ->
      Scheduler.park
        ~describe:(fun () -> "wait: " ^ t.describe ())
        ~poll:(fun () -> if t.ready () then Some () else None);
      let s = t.finalize () in
      t.status <- Some s;
      s

let is_complete t = t.status <> None

let wait_all ts = List.map wait ts

(* Persistent requests (MPI-4 [*_init] operations).

   A persistent request is built once — validation, algorithm selection,
   datatype plan compilation and buffer pre-acquisition all happen at init
   — and then cycled through [start]/[wait_p] many times.  The closures
   below are the *only* closures of a cycle: [start]/[wait_p] themselves
   allocate nothing (the park closure in [wait_p] is constructed only on
   the slow path, when the operation is not already complete).

   Lifecycle, per MPI semantics: init → inactive; [start] activates (error
   if already active); [wait_p]/[test_p] complete the cycle back to
   inactive, and are no-ops / immediately-true on an inactive request;
   [free_p] is an error while active. *)

type p = {
  p_describe : string;
  p_start : unit -> unit;  (* begin one cycle (post receives, inject sends) *)
  p_ready : unit -> bool;  (* cheap poll, safe from the scheduler loop *)
  p_advance : unit -> bool;  (* [test_p]'s progress step, as [advance] above *)
  p_run : unit -> unit;  (* finish the cycle in the owning fiber *)
  mutable p_active : bool;
  mutable p_freed : bool;
  mutable p_cycles : int;
}

let make_p ~describe ~start ~advance ~ready ~run =
  {
    p_describe = describe;
    p_start = start;
    p_ready = ready;
    p_advance = advance;
    p_run = run;
    p_active = false;
    p_freed = false;
    p_cycles = 0;
  }

let describe_p p = p.p_describe

let is_active p = p.p_active

let started_cycles p = p.p_cycles

let start p =
  if p.p_freed then
    Errdefs.usage_error "Request.start: %s has been freed" p.p_describe;
  if p.p_active then
    Errdefs.usage_error "Request.start: %s is already active (wait it first)"
      p.p_describe;
  p.p_active <- true;
  p.p_cycles <- p.p_cycles + 1;
  p.p_start ()

let wait_p p =
  if p.p_active then begin
    if not (p.p_ready ()) then
      Scheduler.park
        ~describe:(fun () -> "wait: " ^ p.p_describe)
        ~poll:(fun () -> if p.p_ready () then Some () else None);
    p.p_run ();
    p.p_active <- false
  end

let test_p p =
  if not p.p_active then true
  else if p.p_advance () then begin
    p.p_run ();
    p.p_active <- false;
    true
  end
  else false

let free_p p =
  if p.p_freed then
    Errdefs.usage_error "Request.free: %s already freed" p.p_describe;
  if p.p_active then
    Errdefs.usage_error "Request.free: %s is still active (wait it first)"
      p.p_describe;
  p.p_freed <- true

(* Wait until at least one request completes; returns its index and status.
   Raises [Invalid_argument] on an empty list. *)
let wait_any ts =
  if ts = [] then invalid_arg "Request.wait_any: empty";
  let arr = Array.of_list ts in
  let find_ready () =
    let rec go i =
      if i >= Array.length arr then None
      else if arr.(i).status <> None || arr.(i).ready () then Some i
      else go (i + 1)
    in
    go 0
  in
  let i =
    match find_ready () with
    | Some i -> i
    | None ->
        Scheduler.park
          ~describe:(fun () -> Printf.sprintf "wait_any over %d requests" (Array.length arr))
          ~poll:find_ready
  in
  let s =
    match arr.(i).status with
    | Some s ->
        (* Selecting an already-inactive request is the same misuse as
           waiting on one directly; report it instead of hiding it. *)
        notify_rewait arr.(i);
        s
    | None ->
        let s = arr.(i).finalize () in
        arr.(i).status <- Some s;
        s
  in
  (i, s)

(* Complete every currently-ready request; returns (index, status) pairs.
   Does not block. *)
let test_some ts =
  List.mapi (fun i t -> (i, t)) ts
  |> List.filter_map (fun (i, t) ->
         match test t with Some s -> Some (i, s) | None -> None)
