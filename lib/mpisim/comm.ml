(* Communicators.

   A communicator couples a process group with a private context id, so
   that point-to-point traffic and collectives on different communicators
   never cross-match.  Each rank holds its own handle ([t]); the [shared]
   record (context, group, revocation flag, debug trace) is common to all
   member ranks — mirroring how an MPI implementation keeps communicator
   state per process but semantically shared.

   Tag space: user tags are 0..[max_user_tag]; tags above that are reserved
   for the internal messages of collective algorithms. *)

let max_user_tag = (1 lsl 20) - 1

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
   differing groups (they would trip the registry's group-equality check).
   A failed member left in the stored group is correct ULFM behavior: the
   next operation on the shrunken communicator raises and the next
   recovery round shrinks it out. *)
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

type shared = {
  context : int;
  group : Group.t;  (* comm rank -> world rank *)
  inverse : (int, int) Hashtbl.t;  (* world rank -> comm rank *)
  mutable revoked : bool;
  revoke_observed : bool array;  (* comm rank -> rank has observed the revoke *)
  ibarriers : (int, ibarrier_state) Hashtbl.t;  (* generation -> state *)
  bcast_counts : (int, bcast_count) Hashtbl.t;  (* generation -> root's count *)
  mutable pending_shrink : shrink_state option;
  (* Per-rank trace of collective operations, recorded at assertion level
     >= 2 and checked for consistency by the engine (a "strong debug mode",
     paper §II). *)
  mutable op_trace : string list array option;
}

type t = {
  rt : Runtime.t;
  shared : shared;
  rank : int;  (* my rank in this communicator *)
  mutable errhandler : Errdefs.handler;
  mutable my_ibarrier_gen : int;
  mutable my_agree_gen : int;
  mutable my_bcast_gen : int;
  topology : topology option;
}

(* Built eagerly: ranks on different domains read it concurrently, and
   forcing one shared [lazy] from two domains raises [Lazy.Undefined]. *)
let inverse_of group =
  let h = Hashtbl.create (Group.size group) in
  Array.iteri (fun r w -> Hashtbl.replace h w r) group;
  h

let create_shared rt group =
  let op_trace =
    if rt.Runtime.assertion_level >= 2 then Some (Array.make (Group.size group) [])
    else None
  in
  let inverse = inverse_of group in
  {
    context = Runtime.fresh_context rt;
    group;
    inverse;
    revoked = false;
    revoke_observed = Array.make (Group.size group) false;
    ibarriers = Hashtbl.create 4;
    bcast_counts = Hashtbl.create 4;
    pending_shrink = None;
    op_trace;
  }

(* NOTE: [create_shared] is completed by [register] below; use
   [create_registered_shared] unless you are the registry itself. *)

(* Registry of shared communicator records, keyed by (runtime id, context):
   all ranks creating the "same" communicator must end up pointing at one
   shared record so that revocation and rendezvous state propagate. *)
let registry : (int * int, shared) Hashtbl.t = Hashtbl.create 64

let register rt shared = Hashtbl.replace registry (rt.Runtime.id, shared.context) shared

let find_shared rt ~context = Hashtbl.find_opt registry (rt.Runtime.id, context)

(* Atomic with respect to fiber scheduling (no park inside).  Takes the
   runtime lock in multicore mode: several ranks build the "same"
   communicator concurrently and must converge on one shared record. *)
let get_or_create_shared rt ~context ~group =
  Runtime.locked rt @@ fun () ->
  match find_shared rt ~context with
  | Some s ->
      if not (Group.equal s.group group) then
        Errdefs.usage_error "communicator context %d created with differing groups" context;
      s
  | None ->
      let inverse = inverse_of group in
      let op_trace =
        if rt.Runtime.assertion_level >= 2 then Some (Array.make (Group.size group) [])
        else None
      in
      let s =
        {
          context;
          group;
          inverse;
          revoked = false;
          revoke_observed = Array.make (Group.size group) false;
          ibarriers = Hashtbl.create 4;
          bcast_counts = Hashtbl.create 4;
          pending_shrink = None;
          op_trace;
        }
      in
      register rt s;
      s

let all_shared rt =
  Hashtbl.fold (fun (rid, _) s acc -> if rid = rt.Runtime.id then s :: acc else acc) registry []

let clear_registry rt =
  let keys =
    Hashtbl.fold (fun (rid, c) _ acc -> if rid = rt.Runtime.id then (rid, c) :: acc else acc)
      registry []
  in
  List.iter (Hashtbl.remove registry) keys

let create_registered_shared rt group =
  let s = create_shared rt group in
  register rt s;
  s

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
  match Hashtbl.find_opt t.shared.inverse w with
  | Some r -> r
  | None -> Errdefs.usage_error "world rank %d is not a member of this communicator" w

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

(* Record a collective entry for the strong debug mode. *)
let trace_collective t op =
  match t.shared.op_trace with
  | None -> ()
  | Some traces -> traces.(t.rank) <- op :: traces.(t.rank)

(* Check that all ranks performed the same sequence of collectives; used at
   engine teardown when assertion level >= 2. *)
let collective_trace_mismatch shared =
  match shared.op_trace with
  | None -> None
  | Some traces ->
      if Array.length traces <= 1 then None
      else begin
        let reference = List.rev traces.(0) in
        let rec check r =
          if r >= Array.length traces then None
          else begin
            let mine = List.rev traces.(r) in
            (* Ranks may legitimately have stopped early only if the whole
               run aborted; for completed runs the sequences must agree. *)
            if mine <> reference then
              Some
                (Printf.sprintf
                   "collective sequence mismatch: rank 0 ran [%s], rank %d ran [%s]"
                   (String.concat "; " reference)
                   r
                   (String.concat "; " mine))
            else check (r + 1)
          end
        in
        check 1
      end

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
  trace_collective t op;
  if Check.enabled t.rt.Runtime.check then
    Check.on_collective t.rt.Runtime.check ~context:t.shared.context ~rank:t.rank
      ~world_rank:(world_rank t) ~op ~root ~ty
