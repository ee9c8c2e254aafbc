(** Communicators: a process group plus a private context id, so traffic
    on different communicators never cross-matches.

    Each rank holds its own handle ({!t}); the {!shared} record (context,
    group, revocation flag, rendezvous state) is common to all member
    ranks.  Every shared record of a run reaches the run's table of
    communicators ([comms]), so no communicator state outlives
    its run or is visible to another run.  Record internals are exposed
    for the collective layer (which keeps rendezvous state for the
    non-blocking barrier, ULFM shrink and agree, and RMA windows);
    applications should treat them as read-only. *)

(** Largest tag usable by applications; larger tags are reserved for the
    internal messages of collective algorithms. *)
val max_user_tag : int

type topology = { sources : int array; destinations : int array }
(** Neighbor lists in comm ranks, for the neighborhood collectives
    (§V-A). *)

type ibarrier_state = {
  ib_target : int;
  mutable ib_entered : int;
  mutable ib_max_clock : float;
  mutable ib_finalized : int;
}

type shrink_state = {
  sh_context : int;
  mutable sh_arrived : int list;
  mutable sh_max_clock : float;
  mutable sh_done : int;
  mutable sh_survivors : int list option;
      (** survivor group decided by the first rank through the
          rendezvous; later ranks reuse it so a failure {e during} the
          shrink cannot make survivors compute differing groups *)
}

type bcast_count = {
  bc_count : int;  (** element count published by the bcast root *)
  mutable bc_consumed : int;  (** ranks done with this entry; reclaimed at size *)
}
(** In real MPI every rank passes the count to [MPI_Bcast]; our binding
    takes the payload at the root only, so the collective layer publishes
    the root's count here (keyed by per-rank bcast generation) before the
    data moves.  Message-size-keyed algorithm selection reads it so all
    ranks pick the same algorithm. *)

(** Rendezvous state for one ULFM agreement generation; [ag_result] is
    decided once, by the first rank through the rendezvous. *)
type agree_state = {
  mutable ag_arrived : (int * bool) list;  (** (comm rank, contribution) *)
  mutable ag_max_clock : float;
  mutable ag_done : int;
  mutable ag_result : bool option;
}

type shared = {
  context : int;
  group : Group.t;
  inverse : (int, int) Hashtbl.t;
  mutable revoked : bool;
  revoke_observed : bool array;
      (** per comm rank: has that rank's control flow observed the
          revocation yet?  Receives parked before the revoke only abort
          once their source is marked here (or dead), so in-flight
          collectives can drain — revocation notice propagates
          asynchronously, as in real ULFM. *)
  ibarriers : (int, ibarrier_state) Hashtbl.t;
  bcast_counts : (int, bcast_count) Hashtbl.t;
  agrees : (int, agree_state) Hashtbl.t;  (** agreement generation -> state *)
  windows : (int, Obj.t) Hashtbl.t;
      (** window creation generation -> the RMA window's shared state,
          type-erased (see {!Rma}) *)
  mutable pending_shrink : shrink_state option;
  comms : (int, shared) Hashtbl.t;
      (** the run's communicators by context; one table per run, shared
          by every record of that run *)
}

type t = {
  rt : Runtime.t;
  shared : shared;
  rank : int;
  mutable errhandler : Errdefs.handler;
  mutable my_ibarrier_gen : int;
  mutable my_agree_gen : int;
  mutable my_bcast_gen : int;
  mutable my_win_gen : int;
  topology : topology option;
}

(** {1 Construction (used by the engine and communicator operations)} *)

(** The world communicator's shared record for a fresh run; it also
    starts the run's communicator table. *)
val create_world : Runtime.t -> shared

(** Find or atomically create the shared record for [context] in the
    parent's run; raises if an existing record has a different group. *)
val get_or_create_shared : t -> context:int -> group:Group.t -> shared

(** Per-rank handle onto a shared record. *)
val attach : ?topology:topology -> Runtime.t -> shared -> rank:int -> t

(** {1 Accessors} *)

val rank : t -> int

val size : t -> int

val context : t -> int

val group : t -> Group.t

val runtime : t -> Runtime.t

(** This rank's world rank. *)
val world_rank : t -> int

(** World rank of a comm rank. *)
val world_of_rank : t -> int -> int

(** Comm rank of a world rank; raises if not a member. *)
val rank_of_world : t -> int -> int

val topology : t -> topology option

(** {1 Revocation and error handling (§III-G, §V-B)} *)

(** Whether the communicator has been revoked.  Also records that this
    rank has now observed the revocation, releasing peers whose parked
    receives were waiting on this rank (see {!revocation_reached}). *)
val is_revoked : t -> bool

(** [is_revoked] without the observation side effect: for poll loops that
    must not count as this rank abandoning its in-flight operations. *)
val revoked_flag : t -> bool

(** The communicator is revoked {e and} the revocation is visible from
    world rank [world]'s side: that rank has observed it or has failed.
    A receive parked on a specific source aborts with [ERR_REVOKED] only
    under this condition — while the source is alive and still unaware of
    the revocation, it may yet complete the in-flight exchange. *)
val revocation_reached : t -> world:int -> bool

val revoke : t -> unit

val set_errhandler : t -> Errdefs.handler -> unit

val errhandler : t -> Errdefs.handler

(** Raise (or otherwise dispatch) a runtime failure through the
    communicator's error handler. *)
val error : t -> Errdefs.code -> ('a, unit, string, 'b) format4 -> 'a

(** {1 Checks} *)

val check_rank : t -> int -> unit

val check_user_tag : t -> int -> unit

val any_member_failed : t -> bool

(** Comm ranks of failed members. *)
val failed_members : t -> int list

(** Common collective prologue: revocation and failure checks and — when
    the sanitizer is enabled — the collective call-order consistency
    check.  [root] is the comm-rank root ([-1] for unrooted collectives);
    [ty] the element-type name ({!Datatype.name}, [""] when untyped).  Both are passed as plain immediates so the
    sanitizer-off path allocates nothing. *)
val check_collective : t -> op:string -> root:int -> ty:string -> unit
