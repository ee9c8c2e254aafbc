(* Communicators.

   A communicator couples a process group with a private context id, so
   that point-to-point traffic and collectives on different communicators
   never cross-match.  Each rank holds its own handle ([t]); the [shared]
   record (context, group, revocation flag, rendezvous state) is common to
   all member ranks — mirroring how an MPI implementation keeps communicator
   state per process but semantically shared.

   Tag space: user tags are 0..[max_user_tag]; tags above that are reserved
   for the internal messages of collective algorithms. *)

let max_user_tag = Mailbox.max_user_tag

type topology = { sources : int array; destinations : int array }
(* Neighbor lists in comm ranks, for neighborhood collectives (§V-A). *)

(* Rendezvous state for a non-blocking barrier generation. *)
type ibarrier_state = {
  ib_target : int;
  mutable ib_entered : int;
  mutable ib_max_clock : float;
  mutable ib_finalized : int;
}

(* Rendezvous state for a ULFM shrink in progress.  [sh_survivors] is the
   survivor group decided by the first rank to pass the rendezvous; later
   ranks reuse it even if more failures have happened since — a rank that
   dies during the shrink collective must not make survivors compute
   differing groups (they would trip the group-equality check of
   [get_or_create_shared]).  A failed member left in the stored group is
   correct ULFM behavior: the next operation on the shrunken communicator
   raises and the next recovery round shrinks it out. *)
type shrink_state = {
  sh_context : int;
  mutable sh_arrived : int list;  (* comm ranks of arrived survivors *)
  mutable sh_max_clock : float;
  mutable sh_done : int;
  mutable sh_survivors : int list option;  (* comm ranks, decided once *)
}

type bcast_count = {
  bc_count : int;
  mutable bc_consumed : int;
}

(* Rendezvous state for one ULFM agreement generation.  [ag_result] is
   the agreed value, decided by the first rank through the rendezvous;
   later ranks must reuse it — if a contributor dies between two
   survivors' resumptions, recomputing would let them disagree on the
   "agreed" value, which defeats the operation. *)
type agree_state = {
  mutable ag_arrived : (int * bool) list;  (* (comm rank, contribution) *)
  mutable ag_max_clock : float;
  mutable ag_done : int;
  mutable ag_result : bool option;
}

type shared = {
  context : int;
  group : Group.t;  (* comm rank -> world rank *)
  inverse : (int, int) Hashtbl.t;  (* world rank -> comm rank *)
  mutable revoked : bool;
  revoke_observed : bool array;  (* comm rank -> rank has observed the revoke *)
  ibarriers : (int, ibarrier_state) Hashtbl.t;  (* generation -> state *)
  bcast_counts : (int, bcast_count) Hashtbl.t;  (* generation -> root's count *)
  agrees : (int, agree_state) Hashtbl.t;  (* generation -> state *)
  (* Window creation generation -> the window's shared state, erased to
     [Obj.t] because its element type varies (see [Rma.create]). *)
  windows : (int, Obj.t) Hashtbl.t;
  mutable pending_shrink : shrink_state option;
  (* The run's communicators, context -> shared record: one table per
     run, created with the world communicator and referenced by every
     record derived from it.  All ranks creating the "same" communicator
     look it up here, so revocation and rendezvous state propagate. *)
  comms : (int, shared) Hashtbl.t;
}

type t = {
  rt : Runtime.t;
  shared : shared;
  rank : int;  (* my rank in this communicator *)
  mutable errhandler : Errdefs.handler;
  mutable my_ibarrier_gen : int;
  mutable my_agree_gen : int;
  mutable my_bcast_gen : int;
  mutable my_win_gen : int;
  mutable my_sched_gen : int;
      (* progressive collective instances posted so far: their tag windows *)
  topology : topology option;
}

(* World rank -> communicator rank. *)
let inverse_of group =
  let h = Hashtbl.create (Group.size group) in
  Array.iteri (fun r w -> Hashtbl.replace h w r) group;
  h

let make_shared ~comms ~context group =
  let s =
    {
      context;
      group;
      inverse = inverse_of group;
      revoked = false;
      revoke_observed = Array.make (Group.size group) false;
      ibarriers = Hashtbl.create 4;
      bcast_counts = Hashtbl.create 4;
      agrees = Hashtbl.create 4;
      windows = Hashtbl.create 4;
      pending_shrink = None;
      comms;
    }
  in
  Hashtbl.replace comms context s;
  s

(* The world communicator's record, which also starts the run's table of
   communicators. *)
let create_world rt =
  make_shared ~comms:(Hashtbl.create 16) ~context:(Runtime.fresh_context rt)
    (Group.world ~size:rt.Runtime.size)

(* Atomic with respect to fiber scheduling (no park inside): every rank
   that builds the "same" communicator converges on one shared record. *)
let get_or_create_shared parent ~context ~group =
  let comms = parent.shared.comms in
  match Hashtbl.find_opt comms context with
  | Some s ->
      if not (Group.equal s.group group) then
        Errdefs.usage_error "communicator context %d created with differing groups" context;
      s
  | None -> make_shared ~comms ~context group

let attach ?topology rt shared ~rank =
  if rank < 0 || rank >= Group.size shared.group then
    Errdefs.usage_error "Comm.attach: rank %d out of range" rank;
  {
    rt;
    shared;
    rank;
    errhandler = Errdefs.Errors_raise;
    my_ibarrier_gen = 0;
    my_agree_gen = 0;
    my_bcast_gen = 0;
    my_win_gen = 0;
    my_sched_gen = 0;
    topology;
  }

let rank t = t.rank

let size t = Group.size t.shared.group

let context t = t.shared.context

let group t = t.shared.group

let runtime t = t.rt

let world_rank t = Group.world_rank t.shared.group t.rank

let world_of_rank t r = Group.world_rank t.shared.group r

(* Comm rank of a world rank; raises if not a member. *)
let rank_of_world t w =
  match Hashtbl.find t.shared.inverse w with
  | r -> r
  | exception Not_found ->
      Errdefs.usage_error "world rank %d is not a member of this communicator" w

(* Revocation propagates rank to rank rather than instantaneously: each
   rank is marked as having observed it the first time the revocation
   becomes visible to that rank's own control flow (it revokes, queries
   [is_revoked], or has [Err_revoked] raised on it).  Receives parked
   before the revocation only abort once their source has observed it (or
   died) — see [revocation_reached] — so a collective that every member
   entered before the revoke can still drain to completion, as in real
   ULFM where revocation notice reaches ranks asynchronously. *)
let note_revocation_observed t =
  if not t.shared.revoke_observed.(t.rank) then begin
    t.shared.revoke_observed.(t.rank) <- true;
    Runtime.bump_progress t.rt
  end

let revoked_flag t = t.shared.revoked

let is_revoked t =
  if t.shared.revoked then note_revocation_observed t;
  t.shared.revoked

let revoke t =
  t.shared.revoked <- true;
  note_revocation_observed t;
  Runtime.bump_progress t.rt

let revocation_reached t ~world =
  t.shared.revoked
  && (t.shared.revoke_observed.(rank_of_world t world) || Runtime.is_failed t.rt world)

let set_errhandler t h = t.errhandler <- h

let errhandler t = t.errhandler

let topology t = t.topology

(* Raise (or otherwise handle) a runtime failure according to the
   communicator's error handler. *)
let error t code fmt =
  (match code with Errdefs.Err_revoked -> note_revocation_observed t | _ -> ());
  Printf.ksprintf
    (fun msg ->
      match t.errhandler with
      | Errdefs.Errors_raise -> raise (Errdefs.Mpi_error { code; msg })
      | Errdefs.Errors_are_fatal ->
          Printf.eprintf "FATAL MPI error on rank %d: %s: %s\n%!" t.rank
            (Errdefs.code_name code) msg;
          exit 2
      | Errdefs.Errors_custom f ->
          f code msg;
          (* A handler that returns cannot resume the operation. *)
          raise (Errdefs.Mpi_error { code; msg }))
    fmt

let check_rank t r =
  if r < 0 || r >= size t then Errdefs.usage_error "invalid rank %d (size %d)" r (size t)

let check_user_tag t tag =
  ignore t;
  if tag < 0 || tag > max_user_tag then Errdefs.usage_error "invalid tag %d" tag

(* Does any member of this communicator count as failed? *)
let any_member_failed t =
  Runtime.any_failed t.rt
  && Array.exists (fun w -> Runtime.is_failed t.rt w) t.shared.group

let failed_members t =
  Array.to_list t.shared.group
  |> List.mapi (fun r w -> (r, w))
  |> List.filter (fun (_, w) -> Runtime.is_failed t.rt w)
  |> List.map fst

(* Entry checks common to all collectives.  [root] is the comm-rank root
   (-1 for unrooted collectives) and [ty] the element-type name ("" when
   untyped); both are plain immediates so the sanitizer-off path allocates
   nothing.  When the sanitizer is on, this is also the hook that feeds the
   collective call-order consistency check. *)
let check_collective t ~op ~root ~ty =
  if is_revoked t then error t Errdefs.Err_revoked "%s: communicator revoked" op;
  if any_member_failed t then
    error t Errdefs.Err_proc_failed "%s: failed ranks %s" op
      (String.concat "," (List.map string_of_int (failed_members t)));
  if Check.enabled t.rt.Runtime.check then
    Check.on_collective t.rt.Runtime.check ~context:t.shared.context ~rank:t.rank
      ~world_rank:(world_rank t) ~op ~root ~ty
