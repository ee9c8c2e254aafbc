(* Communicators.

   A communicator couples a process group with a private context id, so
   that point-to-point traffic and collectives on different communicators
   never cross-match.  Each rank holds its own handle ([t]); the [shared]
   record (context, group, revocation flag, rendezvous state) is common to
   all member ranks — mirroring how an MPI implementation keeps communicator
   state per process but semantically shared.

   Tag space: user tags are 0..[max_user_tag]; tags above that are reserved
   for the internal protocols, one entry each in [Coll_algo]'s tag table,
   which also names them in the reports below. *)

let max_user_tag = Mailbox.max_user_tag

type topology = { sources : int array; destinations : int array }
(* Neighbor lists in comm ranks, for neighborhood collectives (§V-A). *)

(* Rendezvous.  [ibarrier], the bcast count, ULFM [agree] and [shrink]
   and RMA window creation meet through shared state rather than
   messages: one cell per call, found in the communicator's table under
   (kind, generation).  Every rank numbers its calls of each kind, and
   calls of a kind are collective, so the k-th call of a kind on every
   member meets in the same cell.  The kind also says whom the cell waits
   for: every member (ibarrier, window), the root (bcast), or the members
   still alive (agree, shrink). *)
type kind = Ibarrier | Bcast of { root : int } | Agree | Shrink | Window

let kind_index = function
  | Ibarrier -> 0
  | Bcast _ -> 1
  | Agree -> 2
  | Shrink -> 3
  | Window -> 4

let n_kinds = 5

(* What the first arrival makes for everyone: shrink's context id, or
   what a later module declares (an RMA window's shared record, see
   [Rma.create]). *)
type made = ..

type made += Nothing | Context of int

let absent = min_int

type cell = {
  kind : kind;
  key : int;  (* generation * n_kinds + kind index *)
  made : made;
  brought : int array;  (* comm rank -> what it brought, [absent] until it arrives *)
  mutable arrivals : int;
  mutable max_clock : float;  (* latest arrival clock *)
  mutable live : int list option;  (* live members, decided once *)
  mutable left : int;  (* ranks done with the cell *)
}

type shared = {
  context : int;
  group : Group.t;  (* comm rank -> world rank *)
  inverse : (int, int) Hashtbl.t;  (* world rank -> comm rank *)
  mutable revoked : bool;
  revoke_observed : bool array;  (* comm rank -> rank has observed the revoke *)
  cells : (int, cell) Hashtbl.t;  (* open rendezvous, by key *)
  (* The run's communicators, context -> shared record: one table per
     run, created with the world communicator and referenced by every
     record derived from it.  All ranks creating the "same" communicator
     look it up here, so revocation and rendezvous state propagate. *)
  comms : (int, shared) Hashtbl.t;
}

(* What this handle's blocked receive, probe or rendezvous waits for.
   The blocking call stores it here and parks on the handle's closures
   over it, built once in [attach]: a blocking receive builds none. *)
type wait = {
  mutable posted : Mailbox.posted;  (* the awaited receive *)
  mutable src_world : int;
  mutable source : int;  (* the probe's source as named: comm rank or any *)
  mutable tag : int;
  mutable op : string;
  mutable cell : cell;  (* the awaited rendezvous *)
}

type t = {
  rt : Runtime.t;
  shared : shared;
  rank : int;  (* my rank in this communicator *)
  mutable errhandler : Errdefs.handler;
  gens : int array;  (* kind index -> rendezvous calls so far *)
  mutable my_sched_gen : int;
      (* progressive collective instances posted so far: their tag windows *)
  topology : topology option;
  wait : wait;
  recv_ready : unit -> bool;
  recv_describe : unit -> string;
  probe_ready : unit -> bool;
  probe_describe : unit -> string;
  cell_settled : unit -> bool;
  cell_describe : unit -> string;
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
      cells = Hashtbl.create 4;
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

(* ------------------------------------------------------------------ *)
(* Rendezvous *)

(* Comm ranks of the members that have not failed, in rank order. *)
let live_members t =
  let rec go r acc =
    if r < 0 then acc
    else go (r - 1) (if Runtime.is_failed t.rt t.shared.group.(r) then acc else r :: acc)
  in
  go (size t - 1) []

(* This rank's next call of [kind].  The first member to arrive creates
   the cell, with [make ()] for everyone; every arrival records what it
   brings ([value]: bcast's count at the root, an agree vote) and its
   clock, and counts as progress. *)
let arrive ?(value = 0) ?(make = fun () -> Nothing) t kind =
  let i = kind_index kind in
  let gen = t.gens.(i) in
  t.gens.(i) <- gen + 1;
  let key = (gen * n_kinds) + i in
  let c =
    match Hashtbl.find_opt t.shared.cells key with
    | Some c -> c
    | None ->
        let c =
          {
            kind;
            key;
            made = make ();
            brought = Array.make (size t) absent;
            arrivals = 0;
            max_clock = 0.;
            live = None;
            left = 0;
          }
        in
        Hashtbl.replace t.shared.cells key c;
        c
  in
  c.brought.(t.rank) <- value;
  c.arrivals <- c.arrivals + 1;
  c.max_clock <- Float.max c.max_clock (Runtime.clock t.rt (world_rank t));
  Runtime.bump_progress t.rt;
  c

let generation c = c.key / n_kinds

(* Every member the cell waits for has arrived (a failed member counts
   as arrived for a live-member cell). *)
let complete t c =
  match c.kind with
  | Ibarrier | Window -> c.arrivals = Array.length c.brought
  | Bcast { root } -> c.brought.(root) <> absent
  | Agree | Shrink ->
      let rec go r =
        r < 0
        || (c.brought.(r) <> absent || Runtime.is_failed t.rt t.shared.group.(r))
           && go (r - 1)
      in
      go (Array.length c.brought - 1)

(* A cell waiting for all members, or for the root, can no longer
   complete once a member has failed (every later collective entry
   raises, so a member yet to arrive never will) or once a member it
   still waits for has observed the revocation. *)
let broken t c =
  let awaited r = c.brought.(r) = absent && t.shared.revoke_observed.(r) in
  match c.kind with
  | Agree | Shrink -> false
  | Bcast { root } -> any_member_failed t || (t.shared.revoked && awaited root)
  | Ibarrier | Window ->
      let rec any r = r >= 0 && (awaited r || any (r - 1)) in
      any_member_failed t || (t.shared.revoked && any (Array.length c.brought - 1))

(* The one wake rule: the cell has completed, or it never will. *)
let settled t c = complete t c || broken t c

(* ------------------------------------------------------------------ *)
(* Blocking waits *)

(* A revocation ends a pending receive only once its source has observed
   it (or died); a wildcard source stands for any member.  Until then the
   source may still complete the in-flight exchange, and waking early
   would tear down collectives that could drain. *)
let revoked_for t ~src_world =
  t.shared.revoked
  && (src_world = Mailbox.any_source || revocation_reached t ~world:src_world)

(* The source can no longer satisfy a receive: it has failed, or it has
   observed the communicator's revocation. *)
let source_gone t ~src_world =
  (src_world <> Mailbox.any_source && Runtime.is_failed t.rt src_world)
  || revoked_for t ~src_world

(* The one wake rule of a posted receive: its match, or a gone source. *)
let matched_or_gone t ~src_world (p : Mailbox.posted) =
  p.Mailbox.p_msg != Message.nil || source_gone t ~src_world

(* The wait rules of this handle's blocked call, over what it stored in
   [t.wait]: the closures [attach] builds call these. *)
let recv_ready t = matched_or_gone t ~src_world:t.wait.src_world t.wait.posted

let recv_describe t =
  let w = t.wait in
  Printf.sprintf "%s on rank %d (ctx %d, src %d, tag %s)" w.op t.rank t.shared.context
    w.posted.Mailbox.p_src
    (Coll_algo.describe_tag w.posted.Mailbox.p_tag)

(* A probe wakes like a receive that is never posted: once a match is
   queued or the source is gone. *)
let probe_ready t =
  let w = t.wait in
  source_gone t ~src_world:w.src_world
  || Mailbox.find_slot
       t.rt.Runtime.mailboxes.(world_rank t)
       ~context:t.shared.context ~src:w.src_world ~tag:w.tag
     >= 0

let probe_describe t =
  Printf.sprintf "probe on rank %d (src %d, tag %s)" t.rank t.wait.source
    (Coll_algo.describe_tag t.wait.tag)

let cell_describe t =
  let c = t.wait.cell in
  match c.kind with
  | Shrink -> Printf.sprintf "comm_shrink on rank %d" t.rank
  | Agree -> Printf.sprintf "comm_agree on rank %d" t.rank
  | Bcast _ -> Printf.sprintf "bcast count rendezvous gen %d" (generation c)
  | Ibarrier | Window -> Printf.sprintf "rendezvous gen %d" (generation c)

(* A cell no wait is on: the [wait.cell] of a handle before its first
   rendezvous. *)
let no_cell =
  {
    kind = Ibarrier;
    key = -1;
    made = Nothing;
    brought = [||];
    arrivals = 0;
    max_clock = 0.;
    live = None;
    left = 0;
  }

let attach ?topology rt shared ~rank =
  if rank < 0 || rank >= Group.size shared.group then
    Errdefs.usage_error "Comm.attach: rank %d out of range" rank;
  let rec t =
    {
      rt;
      shared;
      rank;
      errhandler = Errdefs.Errors_raise;
      gens = Array.make n_kinds 0;
      my_sched_gen = 0;
      topology;
      wait =
        {
          posted = Mailbox.no_posted;
          src_world = Mailbox.any_source;
          source = Mailbox.any_source;
          tag = Mailbox.any_tag;
          op = "";
          cell = no_cell;
        };
      recv_ready = (fun () -> recv_ready t);
      recv_describe = (fun () -> recv_describe t);
      probe_ready = (fun () -> probe_ready t);
      probe_describe = (fun () -> probe_describe t);
      cell_settled = (fun () -> settled t t.wait.cell);
      cell_describe = (fun () -> cell_describe t);
    }
  in
  t

let await t c =
  if not (settled t c) then begin
    t.wait.cell <- c;
    Request.block t.rt.Runtime.inflight.(world_rank t) ~describe:t.cell_describe
      ~ready:t.cell_settled
  end

(* The live members, decided by the first rank through: later ranks
   reuse the decision even if a member has died since, so survivors
   cannot compute differing groups or agreed values. *)
let decide_live t c =
  match c.live with
  | Some l -> l
  | None ->
      let l = live_members t in
      c.live <- Some l;
      l

(* Leave the cell at the modelled end of the agreement it stands for:
   [k] passes of ceil(log2 m) latency-bound rounds after the last
   arrival. *)
let sync_rounds t c ~k ~m =
  let model = t.rt.Runtime.model in
  let hop = model.Net_model.latency +. model.Net_model.send_overhead in
  let rounds = k * Coll_algo.ceil_log2 m in
  Runtime.sync_clock t.rt (world_rank t) (c.max_clock +. (float_of_int rounds *. hop))

(* Done with the cell.  The last live member out removes it; a cell that
   broke raises [op]'s error. *)
let leave t c ~op =
  c.left <- c.left + 1;
  let live = if Runtime.any_failed t.rt then List.length (live_members t) else size t in
  if c.left >= live then Hashtbl.remove t.shared.cells c.key;
  if not (complete t c) then
    if t.shared.revoked then error t Errdefs.Err_revoked "%s: communicator revoked" op
    else error t Errdefs.Err_proc_failed "%s: a member failed before the rendezvous" op
