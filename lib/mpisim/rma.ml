(* One-sided communication: RMA windows with fence and lock/unlock
   synchronization (MPI_Win / MPI_Put / MPI_Get / MPI_Accumulate /
   MPI_Win_lock analogue).

   The paper positions extending the MPI-standard coverage as future work
   (§VI); boost-mpi3 is noted for one-sided support.  This module covers
   two synchronization modes:

   - active target (fence): between two fences, ranks issue
     puts/gets/accumulates against any peer's exposure; a fence completes
     all pending operations and synchronizes (barrier semantics with the
     usual dissemination cost);
   - passive target (lock/unlock): a rank opens an exclusive or shared
     epoch on one target; its operations are applied — and its gets
     become valid — at [unlock], without the target participating.
     [with_locked] is the RAII-style guard.

   Model: operations are recorded as pending at the origin and applied at
   the closing synchronization in (origin rank, issue order) for fences —
   a deterministic serialization consistent with MPI's "undefined unless
   synchronized" semantics — and in issue order at unlock.  Costs: each
   operation charges its origin one message (alpha + beta * bytes); gets
   additionally wait a round trip (2*alpha + beta * bytes) at the closing
   fence or unlock; a lock acquisition waits a round trip to the target.
   Concurrent accumulates to the same location are well-defined (applied
   in the deterministic order); overlapping puts follow the same order
   (last origin wins).

   Bounds are validated when the operation is issued, not when the
   closing fence applies it: an out-of-range access raises the named
   ERR_RMA_RANGE at the faulty call site (and bumps [check.rma_range]
   under the sanitizer) instead of surfacing as a raw [Invalid_argument]
   from a blit deep inside [fence]. *)

type 'a op =
  | Put of { target : int; target_pos : int; data : 'a array }
  | Get of { target : int; target_pos : int; count : int; into : 'a array; into_pos : int }
  | Accumulate of {
      target : int;
      target_pos : int;
      data : 'a array;
      combine : 'a -> 'a -> 'a;
    }

(* Passive-target lock word of one rank's exposure: writer-or-readers.
   [excl] is meaningful while [holders > 0]. *)
type lock_state = { mutable excl : bool; mutable holders : int }

type 'a shared = {
  exposures : 'a array array;  (* world rank -> exposed local array *)
  pending : (int * 'a op) list ref;  (* (origin world rank, op), reversed *)
  locks : lock_state array;  (* world rank -> passive-target lock *)
  mutable fences : int;  (* completed fence epochs *)
}

(* The window's shared record, as the creation rendezvous holds it: the
   datatype's identity proves every later rank's element type equal to
   the first's. *)
type Comm.made += Window_state : 'a Type.Id.t * 'a shared -> Comm.made

type 'a t = {
  comm : Comm.t;
  dt : 'a Datatype.t;
  shared : 'a shared;
  cell : Comm.cell;  (* the creation rendezvous, left at [free] *)
  mutable lock_target : int;  (* world rank of the open lock epoch, -1 none *)
  mutable epoch_ops : 'a op list;  (* ops of the open lock epoch, reversed *)
  mutable freed : bool;
  (* The lock [lock] waits for, and the closures it parks on, built
     once per window. *)
  mutable wanted : int;  (* comm rank of the target *)
  mutable wanted_exclusive : bool;
  lock_ready : unit -> bool;
  lock_describe : unit -> string;
}

(* The wanted lock can be taken: an exclusive lock needs the target free,
   a shared lock tolerates other shared holders. *)
let acquirable t =
  let ls = t.shared.locks.(Comm.world_of_rank t.comm t.wanted) in
  ls.holders = 0 || ((not t.wanted_exclusive) && not ls.excl)

let lock_describe t =
  Printf.sprintf "win_lock(%s) on target %d"
    (if t.wanted_exclusive then "exclusive" else "shared")
    t.wanted

(* Create a window exposing [local].  Collective.  The arrays stay owned
   by their ranks; remote access goes through the window operations.

   All ranks share one window state: the first to arrive at the creation
   rendezvous makes it, and creation is collective, so every rank's k-th
   [create] on a communicator meets in the same cell.  Every rank must
   pass the same datatype: its identity is what lets a later rank take
   the first one's state at its own element type.  The cell stays open
   until [free]. *)
let create (type a) (comm : Comm.t) (dt : a Datatype.t) (local : a array) : a t =
  Comm.check_collective comm ~op:"win_create" ~root:(-1) ~ty:"";
  Runtime.record (Comm.runtime comm) ~op:"win_create" ~bytes:0;
  let size = (Comm.runtime comm).Runtime.size in
  let cell =
    Comm.arrive comm Comm.Window ~make:(fun () ->
        Window_state
          ( dt.Datatype.id,
            {
              exposures = Array.make size [||];
              pending = ref [];
              locks = Array.init size (fun _ -> { excl = false; holders = 0 });
              fences = 0;
            } ))
  in
  let shared : a shared =
    match cell.Comm.made with
    | Window_state (id, s) -> (
        match Type.Id.provably_equal id dt.Datatype.id with
        | Some Type.Equal -> s
        | None ->
            Errdefs.usage_error
              "win_create: rank %d passed datatype %s, not the one the other ranks passed"
              (Comm.rank comm) (Datatype.name dt))
    | _ -> invalid_arg "Rma.create"
  in
  shared.exposures.(Comm.world_rank comm) <- local;
  (* Windows become usable only after every rank registered. *)
  Coll.barrier comm;
  let rec t =
    {
      comm;
      dt;
      shared;
      cell;
      lock_target = -1;
      epoch_ops = [];
      freed = false;
      wanted = 0;
      wanted_exclusive = false;
      lock_ready = (fun () -> acquirable t);
      lock_describe = (fun () -> lock_describe t);
    }
  in
  t

let check_not_freed t ~op =
  if t.freed then Errdefs.usage_error "%s: window has been freed" op

let charge_origin t ~bytes =
  let rt = Comm.runtime t.comm in
  let me = Comm.world_rank t.comm in
  Runtime.advance_clock rt me (Net_model.send_busy_time rt.Runtime.model ~bytes);
  Runtime.bump_progress rt

(* The modelled round trip a get waits for at the closing fence/unlock:
   request out, [bytes] of payload back. *)
let get_round_trip t ~bytes =
  let model = (Comm.runtime t.comm).Runtime.model in
  (2. *. Net_model.transit_time model) +. (float_of_int bytes *. model.Net_model.byte_time)

(* Issue-time bounds validation against the target's exposure.  The
   exposure length is known on every rank once [create]'s barrier has
   completed.  Raises the named ERR_RMA_RANGE (satellite: not a raw
   [Invalid_argument] out of a blit inside [fence]) and counts the
   violation under the sanitizer. *)
let check_range t ~op ~target_world ~target ~pos ~count =
  let len = Array.length t.shared.exposures.(target_world) in
  if pos < 0 || count < 0 || pos + count > len then begin
    let chk = (Comm.runtime t.comm).Runtime.check in
    if Check.enabled chk then
      Check.on_rma_range chk ~rank:(Comm.world_rank t.comm) ~op ~target ~pos ~count ~len;
    Comm.error t.comm Errdefs.Err_rma_range
      "%s: [%d, %d) out of bounds for target %d's %d-element window" op pos (pos + count)
      target len
  end

(* Route an issued op: into the open lock epoch if one is held (where it
   must address the locked target), into the shared fence batch
   otherwise. *)
let enqueue t ~op_name ~target_world (op : 'a op) =
  if t.lock_target >= 0 then begin
    if target_world <> t.lock_target then
      Errdefs.usage_error "%s: lock epoch is open on rank %d; cannot address rank %d"
        op_name
        (Comm.rank_of_world t.comm t.lock_target)
        (Comm.rank_of_world t.comm target_world);
    t.epoch_ops <- op :: t.epoch_ops
  end
  else
    (* The fence batch is shared by all ranks of the window. *)
    t.shared.pending := (Comm.world_rank t.comm, op) :: !(t.shared.pending)

(* Queue a put of [data] into [target]'s exposure at [target_pos].
   Applied at the next fence (or at unlock inside a lock epoch). *)
let put (t : 'a t) ~target ~target_pos (data : 'a array) : unit =
  Comm.check_rank t.comm target;
  check_not_freed t ~op:"rma_put";
  let target_world = Comm.world_of_rank t.comm target in
  check_range t ~op:"rma_put" ~target_world ~target ~pos:target_pos
    ~count:(Array.length data);
  Runtime.record (Comm.runtime t.comm) ~op:"rma_put"
    ~bytes:(Datatype.size_of_count t.dt (Array.length data));
  charge_origin t ~bytes:(Datatype.size_of_count t.dt (Array.length data));
  enqueue t ~op_name:"rma_put" ~target_world
    (Put { target = target_world; target_pos; data = Array.copy data })

(* Queue a get of [count] elements from [target]'s exposure into [into]
   at [into_pos]; the data is valid after the next fence (or unlock). *)
let get (t : 'a t) ~target ~target_pos ~count (into : 'a array) ~into_pos : unit =
  Comm.check_rank t.comm target;
  check_not_freed t ~op:"rma_get";
  let target_world = Comm.world_of_rank t.comm target in
  check_range t ~op:"rma_get" ~target_world ~target ~pos:target_pos ~count;
  if into_pos < 0 || count < 0 || into_pos + count > Array.length into then
    Errdefs.usage_error "rma_get: invalid local range (into_pos %d, count %d, len %d)"
      into_pos count (Array.length into);
  Runtime.record (Comm.runtime t.comm) ~op:"rma_get"
    ~bytes:(Datatype.size_of_count t.dt count);
  (* The request message out; the payload's round trip is charged where
     the get completes (fence/unlock). *)
  charge_origin t ~bytes:0;
  enqueue t ~op_name:"rma_get" ~target_world
    (Get { target = target_world; target_pos; count; into; into_pos })

(* Queue an accumulate (well-defined under concurrency: all accumulates
   are applied in the deterministic fence order). *)
let accumulate (t : 'a t) ~target ~target_pos (op : 'a Reduce_op.t) (data : 'a array) :
    unit =
  Comm.check_rank t.comm target;
  check_not_freed t ~op:"rma_accumulate";
  let target_world = Comm.world_of_rank t.comm target in
  check_range t ~op:"rma_accumulate" ~target_world ~target ~pos:target_pos
    ~count:(Array.length data);
  Runtime.record (Comm.runtime t.comm) ~op:"rma_accumulate"
    ~bytes:(Datatype.size_of_count t.dt (Array.length data));
  charge_origin t ~bytes:(Datatype.size_of_count t.dt (Array.length data));
  enqueue t ~op_name:"rma_accumulate" ~target_world
    (Accumulate
       { target = target_world; target_pos; data = Array.copy data; combine = Reduce_op.apply op })

(* Apply one op against the exposures; bounds were validated at issue.
   [origin] pays the get round trip — the charge the module header
   promises (satellite bugfix: it used to never be charged). *)
let apply_op t ~origin (op : 'a op) =
  match op with
  | Put { target; target_pos; data } ->
      Array.blit data 0 t.shared.exposures.(target) target_pos (Array.length data)
  | Get { target; target_pos; count; into; into_pos } ->
      Array.blit t.shared.exposures.(target) target_pos into into_pos count;
      Runtime.advance_clock (Comm.runtime t.comm) origin
        (get_round_trip t ~bytes:(Datatype.size_of_count t.dt count))
  | Accumulate { target; target_pos; data; combine } ->
      let tgt = t.shared.exposures.(target) in
      Array.iteri (fun i v -> tgt.(target_pos + i) <- combine tgt.(target_pos + i) v) data

(* Close the access epoch: applies every pending operation in
   deterministic (origin rank, issue order) and synchronizes all ranks.
   Collective.  The first fiber through the entry barrier applies the
   whole batch (deterministic under the round-robin scheduler, and safe
   to charge other origins' clocks: they are between the two barriers);
   the exit barrier keeps any rank from reading early. *)
let fence (t : 'a t) : unit =
  check_not_freed t ~op:"win_fence";
  if t.lock_target >= 0 then
    Errdefs.usage_error "win_fence: a lock epoch is open; unlock before fencing";
  Comm.check_collective t.comm ~op:"win_fence" ~root:(-1) ~ty:"";
  Runtime.record (Comm.runtime t.comm) ~op:"win_fence" ~bytes:0;
  Coll.barrier t.comm;
  (* Take-and-clear: the first fiber through the barrier runs to
     completion here, so exactly one rank applies the batch. *)
  let ops = List.rev !(t.shared.pending) in
  t.shared.pending := [];
  t.shared.fences <- t.shared.fences + 1;
  if ops <> [] then begin
    let stable = List.stable_sort (fun (o1, _) (o2, _) -> compare o1 o2) ops in
    List.iter (fun (origin, op) -> apply_op t ~origin op) stable
  end;
  Coll.barrier t.comm

(* ------------------------------------------------------------------ *)
(* Passive target: lock / unlock epochs *)

(* Open a passive-target epoch on [target].  Blocks (cooperatively) until
   the lock is acquirable: an exclusive lock needs the target free, a
   shared lock tolerates other shared holders.  One epoch per window per
   origin at a time. *)
let lock ?(exclusive = true) (t : 'a t) ~target : unit =
  Comm.check_rank t.comm target;
  check_not_freed t ~op:"win_lock";
  Runtime.check_alive (Comm.runtime t.comm) (Comm.world_rank t.comm);
  if t.lock_target >= 0 then
    Errdefs.usage_error "win_lock: an epoch on rank %d is already open"
      (Comm.rank_of_world t.comm t.lock_target);
  let target_world = Comm.world_of_rank t.comm target in
  let ls = t.shared.locks.(target_world) in
  t.wanted <- target;
  t.wanted_exclusive <- exclusive;
  (* No fiber runs between the last check and the acquisition. *)
  while not (acquirable t) do
    Request.block (Comm.runtime t.comm).Runtime.inflight.(Comm.world_rank t.comm)
      ~describe:t.lock_describe ~ready:t.lock_ready
  done;
  if ls.holders = 0 then ls.excl <- exclusive;
  ls.holders <- ls.holders + 1;
  t.lock_target <- target_world;
  Runtime.record (Comm.runtime t.comm) ~op:"win_lock" ~bytes:0;
  (* The lock request's round trip to the target. *)
  Runtime.advance_clock (Comm.runtime t.comm) (Comm.world_rank t.comm)
    (2. *. Net_model.transit_time (Comm.runtime t.comm).Runtime.model);
  Runtime.bump_progress (Comm.runtime t.comm)

(* Close the epoch: apply this origin's queued operations in issue order
   (gets pay their round trip here) and release the lock. *)
let unlock (t : 'a t) : unit =
  check_not_freed t ~op:"win_unlock";
  if t.lock_target < 0 then Errdefs.usage_error "win_unlock: no lock epoch is open";
  let me = Comm.world_rank t.comm in
  let ops = List.rev t.epoch_ops in
  t.epoch_ops <- [];
  List.iter (fun op -> apply_op t ~origin:me op) ops;
  let ls = t.shared.locks.(t.lock_target) in
  ls.holders <- ls.holders - 1;
  if ls.holders = 0 then ls.excl <- false;
  t.lock_target <- -1;
  Runtime.record (Comm.runtime t.comm) ~op:"win_unlock" ~bytes:0;
  (* Wake peers parked in [lock]. *)
  Runtime.bump_progress (Comm.runtime t.comm)

(* RAII-style guard: the epoch is closed on any exit, including
   exceptions, so a raising body never leaves the target locked. *)
let with_locked ?exclusive (t : 'a t) ~target (f : unit -> 'b) : 'b =
  lock ?exclusive t ~target;
  Fun.protect ~finally:(fun () -> unlock t) f

(* This rank's exposed array (direct local access). *)
let local (t : 'a t) : 'a array = t.shared.exposures.(Comm.world_rank t.comm)

(* Free the window.  Collective.  The last rank through the barrier
   closes the creation rendezvous. *)
let free (t : 'a t) : unit =
  check_not_freed t ~op:"win_free";
  if t.lock_target >= 0 then
    Errdefs.usage_error "win_free: a lock epoch is open; unlock before freeing";
  Comm.check_collective t.comm ~op:"win_free" ~root:(-1) ~ty:"";
  Runtime.record (Comm.runtime t.comm) ~op:"win_free" ~bytes:0;
  t.freed <- true;
  Coll.barrier t.comm;
  Comm.leave t.comm t.cell ~op:"win_free"
