(** Communicator construction and ULFM operations.

    Context-id agreement is routed through rank 0 of the parent (real
    collective cost); {!shrink} and {!agree} cannot assume any fixed rank
    is alive, so they use a rendezvous with modelled agreement cost. *)

(** Duplicate a communicator: same group, fresh context.  Collective. *)
val dup : Comm.t -> Comm.t

(** Split by (color, key): ranks with equal non-negative color form a new
    communicator, ordered by (key, old rank); a negative color yields
    [None] (MPI_UNDEFINED).  Collective. *)
val split : Comm.t -> color:int -> ?key:int -> unit -> Comm.t option

(** Restrict to a subgroup (MPI_Comm_create semantics): members receive
    the new communicator, others [None].  Collective over the parent. *)
val create_from_group : Comm.t -> Group.t -> Comm.t option

(** Create a communicator with a static neighbor topology for the
    neighborhood collectives (§V-A).  [sources]/[destinations] are parent
    comm ranks; ranks are preserved (no reorder).  Charges the per-member
    topology-construction cost; at assertion level >= 2 also verifies
    edge symmetry with one alltoall.  Collective. *)
val dist_graph_create_adjacent :
  Comm.t -> sources:int array -> destinations:int array -> Comm.t

(** {1 ULFM (paper §V-B)} *)

(** Build a new communicator from the surviving processes, ordered by old
    rank.  Usable on a revoked communicator.  Collective over the
    survivors. *)
val shrink : Comm.t -> Comm.t

(** Fault-tolerant agreement: the logical AND of the survivors'
    contributions.  Collective over the survivors. *)
val agree : Comm.t -> bool -> bool
