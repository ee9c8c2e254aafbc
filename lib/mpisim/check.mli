(** Mpicheck: an opt-in MUST-style correctness sanitizer.

    Four check classes, selected by {!level}:

    - {b collective consistency} (light): all ranks of a communicator
      must issue the same collective kinds in the same order with
      agreeing root and element type; the first divergent rank is
      reported together with both call sites;
    - {b request lifecycle} (light): non-blocking requests must be
      completed exactly once — leaks are reported at finalize, a wait on
      an already-completed request at the wait site;
    - {b deadlock diagnosis} (light): when the scheduler trips its
      detector, the per-rank pending-operation table becomes a wait-for
      graph and the shortest cycle is printed with named edges;
    - {b wildcard determinism} (heavy): an ANY_SOURCE / ANY_TAG receive
      with two or more eligible matches at match time is counted and
      logged (not raised) — the run is schedule-dependent.

    The checker is wired into the runtime like {!Trace}: created with
    the runtime, inert at {!level} [Off].  Call sites guard every hook
    with {!enabled} / {!heavy} so the off path costs one load and branch
    and allocates nothing.

    Findings bump a [check.*] counter in the {!Stats} registry, mark the
    violation site with a {!Trace} instant (category ["check"]) and —
    except for wildcard races — raise {!Errdefs.Check_violation}. *)

type t

type level = Off | Light | Heavy

val level_to_string : level -> string

val level_of_string : string -> level option

(** [create ~stats ~trace ~size ()] builds a checker for a [size]-rank
    simulation, initially at level [Off]. *)
val create : stats:Stats.t -> trace:Trace.t -> size:int -> unit -> t

val level : t -> level

val set_level : t -> level -> unit

(** [level t <> Off].  Guard every hook call site with this. *)
val enabled : t -> bool

(** [level t = Heavy]. *)
val heavy : t -> bool

(** Violations recorded so far (including wildcard races). *)
val violations : t -> int

(** {1 Collective consistency} *)

(** Rank [rank] (within the communicator identified by [context]) issues
    its next collective.  [world_rank] locates trace events; [root] is
    the comm-rank root or [-1] for unrooted collectives; [ty] is the
    element-type name ({!Datatype.name}) or [""] when untyped.  Raises
    {!Errdefs.Check_violation} on kind/root/type divergence from the
    schedule established by the first rank to reach this call slot. *)
val on_collective :
  t ->
  context:int ->
  rank:int ->
  world_rank:int ->
  op:string ->
  root:int ->
  ty:string ->
  unit

(** {1 Request lifecycle} *)

(** Track a freshly created non-blocking request of world rank [rank];
    [kind] names the originating call (["isend"], ["irecv"], ...).  Also
    attaches the re-wait observer that reports double-waits. *)
val track_request : t -> rank:int -> kind:string -> Request.t -> unit

(** Sampled structural hash of a send buffer ([Hashtbl.hash_param]);
    allocation-free. *)
val buffer_hash : 'a -> int

(** Compare the post-time and completion-time hashes of an in-flight
    send buffer; raises on mismatch (heavy level, called by the binding
    layer). *)
val check_send_buffer : t -> rank:int -> op:string -> posted:int -> now:int -> unit

(** {1 Deadlock diagnosis} *)

(** Pending blocking operation of a rank (world ranks; [src = -1] is a
    wildcard receive). *)
type waiting =
  | Wrecv of { src : int; tag : int; ctx : int; op : string }
  | Wssend of { dst : int; tag : int; op : string }

val set_waiting : t -> rank:int -> waiting -> unit

val clear_waiting : t -> rank:int -> unit

(** Upgrade of the scheduler's flat deadlock report: the shortest
    wait-for cycle with named edges when one exists, the per-rank
    pending operations otherwise.  [parked] is
    [Scheduler.Deadlock]'s payload. *)
val deadlock_report :
  t -> parked:(int * string) list -> finished:int -> total:int -> string

(** {1 Payload integrity (chaos plane)} *)

(** The reliable layer's payload CRC failed at the receiver on [rank] for
    a message from [src].  Raises {!Errdefs.Check_violation}. *)
val on_crc_mismatch : t -> rank:int -> src:int -> expected:int -> got:int -> unit

(** {1 Wildcard determinism (heavy)} *)

(** A wildcard receive on [rank] matched while [eligible] messages were
    simultaneously eligible; records a race when [eligible >= 2]. *)
val on_wildcard_match : t -> rank:int -> src:int -> tag:int -> eligible:int -> unit

(** {1 Finalize} *)

(** End-of-run scan (engine teardown of a clean run): leaked requests
    and diverging per-rank collective counts. *)
val finalize_scan : t -> unit
