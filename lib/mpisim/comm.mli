(** Communicators: a process group plus a private context id, so traffic
    on different communicators never cross-matches.

    Each rank holds its own handle ({!t}); the {!shared} record (context,
    group, revocation flag, rendezvous state) is common to all member
    ranks.  Every shared record of a run reaches the run's table of
    communicators ([comms]), so no communicator state outlives
    its run or is visible to another run.  Record internals are exposed
    for the collective layer (which meets in rendezvous cells for the
    non-blocking barrier, the bcast count, and ULFM shrink and agree);
    applications should treat them as read-only. *)

(** Largest tag usable by applications; larger tags are reserved for the
    internal messages of collective algorithms. *)
val max_user_tag : int

type topology = { sources : int array; destinations : int array }
(** Neighbor lists in comm ranks, for the neighborhood collectives
    (§V-A). *)

(** {1 Rendezvous}

    [ibarrier], the bcast count, and ULFM agree and shrink meet through
    shared state rather than messages: one cell per call, in the
    communicator's [cells] table.  The k-th call of a kind on a
    communicator meets every other member's k-th call of that kind. *)

(** The kind also says whom the cell waits for: every member
    ([Ibarrier]), the root ([Bcast]), or the members still alive
    ([Agree], [Shrink]). *)
type kind = Ibarrier | Bcast of { root : int } | Agree | Shrink

type cell = {
  kind : kind;
  key : int;
  made : int;
      (** what the first arrival made for every member: shrink's fresh
          context id, or [min_int] *)
  brought : int array;
      (** comm rank -> the value it brought (bcast's count at the root,
          an agree vote), [min_int] until it arrives *)
  mutable arrivals : int;
  mutable max_clock : float;  (** latest arrival clock *)
  mutable live : int list option;
      (** live members, decided once by the first rank through, so a
          failure {e during} agree or shrink cannot make survivors
          compute differing values or groups *)
  mutable left : int;
}

type shared = {
  context : int;
  group : Group.t;
  inverse : int array;  (** world rank -> comm rank, [-1] for a non-member *)
  mutable revoked : bool;
  revoke_observed : bool array;
      (** per comm rank: has that rank's control flow observed the
          revocation yet?  Receives parked before the revoke only abort
          once their source is marked here (or dead), so in-flight
          collectives can drain — revocation notice propagates
          asynchronously, as in real ULFM. *)
  cells : (int, cell) Hashtbl.t;  (** open rendezvous cells *)
  comms : (int, shared) Hashtbl.t;
      (** the run's communicators by context; one table per run, shared
          by every record of that run *)
}

(** What the handle's blocked receive, probe or rendezvous waits for:
    the blocking call stores it here and parks on the handle's closures
    over it, so a blocking receive builds no closure. *)
type wait = {
  mutable posted : Mailbox.posted;  (** the awaited receive *)
  mutable src_world : int;
  mutable source : int;  (** the probe's source as named: comm rank or any *)
  mutable tag : int;
  mutable op : string;
  mutable cell : cell;  (** the awaited rendezvous *)
}

type t = {
  rt : Runtime.t;
  shared : shared;
  rank : int;
  world : int;  (** this rank's world rank, kept at {!attach} *)
  mutable errhandler : Errdefs.handler;
  gens : int array;  (** rendezvous calls so far, per kind *)
  mutable my_sched_gen : int;
      (** nonblocking and persistent collectives posted so far, which
          numbers their tag windows *)
  topology : topology option;
  wait : wait;
  recv_ready : unit -> bool;  (** {!matched_or_gone} over [wait] *)
  recv_describe : unit -> string;
  probe_ready : unit -> bool;  (** a match queued for [wait], or its source gone *)
  probe_describe : unit -> string;
  cell_settled : unit -> bool;  (** {!settled} on [wait.cell] *)
  cell_describe : unit -> string;
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
    receives were waiting on this rank (see {!revoked_for}). *)
val is_revoked : t -> bool

val revoke : t -> unit

(** {1 Blocking waits} *)

(** The revocation ends a receive from world rank [src_world]
    ({!Mailbox.any_source}: any member): it is revoked and, for a named
    source, the revocation is visible from that rank's side — it has
    observed it or has failed.  While the source is alive and still
    unaware of the revocation, it may yet complete the in-flight
    exchange. *)
val revoked_for : t -> src_world:int -> bool

(** The source can no longer satisfy a receive: it has failed, or
    {!revoked_for}. *)
val source_gone : t -> src_world:int -> bool

(** The one wake rule of a posted receive: its match, or a gone source.
    Scheduler-safe. *)
val matched_or_gone : t -> src_world:int -> Mailbox.posted -> bool

val set_errhandler : t -> Errdefs.handler -> unit

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

(** {1 Rendezvous operations} *)

(** This rank's next call of [kind]: find the cell or, as the first
    member to arrive, create it with [made = make ()] (default
    [min_int]).  Records the arrival, its [value] (default 0) and clock,
    and bumps progress. *)
val arrive : ?value:int -> ?make:(unit -> int) -> t -> kind -> cell

(** The cell's generation: which call of its kind it is. *)
val generation : cell -> int

(** The one wake rule, scheduler-safe: every member the cell waits for
    has arrived, or, for an [Ibarrier] or [Bcast] cell, it never will: a
    member has failed, or a member it waits for has observed the
    revocation before arriving.  [Agree] and [Shrink] cells tolerate
    failures and never break. *)
val settled : t -> cell -> bool

(** Block (through {!Request.block}) until {!settled}, on the handle's
    closures: the deadlock text names the call the cell's kind stands
    for ("comm_agree on rank 2", "bcast count rendezvous gen 0"). *)
val await : t -> cell -> unit

(** The live members, decided by the first rank to ask; later ranks get
    the same list. *)
val decide_live : t -> cell -> int list

(** Move this rank's clock to the cell's latest arrival plus [k] passes
    of [Coll_algo.ceil_log2 m] rounds of (latency + send overhead). *)
val sync_rounds : t -> cell -> k:int -> m:int -> unit

(** Done with the cell: the last live member out removes it from the
    table.  Raises [ERR_REVOKED] / [ERR_PROC_FAILED] (through the error
    handler, naming [op]) if the cell settled without completing. *)
val leave : t -> cell -> op:string -> unit
