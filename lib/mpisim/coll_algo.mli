(** Collective-algorithm selection engine.

    Real MPI implementations switch between several algorithms per
    collective based on message size and communicator size (MPICH's
    recursive-doubling vs Rabenseifner allreduce, binomial vs scatter +
    allgather bcast).  This module centralizes that decision for the
    simulator: {!Coll} asks {!choose} which algorithm to run, and it
    takes the one whose closed-form time under the run's {!Net_model.t}
    is least, so the selector agrees with the simulator it drives.

    The automatic choice can be pinned per operation ({!pin}, or
    [repro_cli --coll-algo] with specs like
    ["allreduce=rabenseifner,allgather=ring"]).  Pins never bypass
    correctness guards: a non-commutative operator always stays on the
    order-safe reference lowering regardless of any pin.

    Pins are part of the run's network model ([Net_model.pins]), so
    every rank of a run sees the same ones, and runs pinned differently
    can share a process or an [Engine.run_many] pool. *)

(** A collective with more than one algorithm available. *)
type op = Net_model.coll_op = Allreduce | Allgather | Bcast | Reduce_scatter

(** The algorithm families.  Not every algorithm applies to every op; see
    {!valid_for}. *)
type algo = Net_model.coll_algo =
  | Reduce_bcast  (** allreduce reference lowering: reduce to 0 + bcast *)
  | Recursive_doubling  (** allreduce: log p full-vector exchanges *)
  | Rabenseifner
      (** allreduce: recursive-halving reduce-scatter followed by a
          recursive-doubling allgather; bandwidth-optimal for long
          messages *)
  | Bruck  (** allgather: log p doubling rounds *)
  | Ring  (** allgather: p-1 nearest-neighbour shifts *)
  | Binomial  (** bcast: binomial tree from the root *)
  | Scatter_allgather
      (** bcast: binomial scatter of blocks + ring allgather *)
  | Reduce_scatterv
      (** reduce_scatter reference lowering: reduce to 0 + scatterv *)
  | Pairwise
      (** reduce_scatter: p-1 pairwise exchanges, O(n) peak buffer *)

val op_name : op -> string
val algo_name : algo -> string

(** [valid_for op algo] is true when [algo] implements [op]. *)
val valid_for : op -> algo -> bool

(** Stats counter name ["coll.algo.<op>.<algo>"].  Preallocated: calling
    this never allocates. *)
val counter_name : op -> algo -> string

(** Trace span name ["<op>.<algo>"].  Preallocated. *)
val span_name : op -> algo -> string

(** {1 Internal tags}

    Tags above the user range belong to the simulator's own protocols.
    This table gives each of them one op id and one name: an operation
    with one algorithm is named after the operation (["alltoallv"]), an
    algorithm after its span (["allreduce.rabenseifner"]), another
    protocol after its call (["comm_split"]).  Every reader of a
    message's tag (the communication matrix, blocked-call and deadlock
    reports, a collective's count error) gets the name with
    {!tag_name}. *)

(** Op ids a posted or persistent collective instance shifts its tags
    by: instance [gen] of a communicator adds
    [first_window_op + tag_window * gen], clear of every id below. *)
val tag_window : int

val first_window_op : int

val tag_barrier : int
val tag_bcast_binomial : int
val tag_gather : int
val tag_scatter : int
val tag_allgather_bruck : int
val tag_allgatherv : int
val tag_alltoall : int
val tag_alltoallv : int
val tag_alltoallw : int
val tag_reduce : int
val tag_scan : int
val tag_neighbor_allgather : int
val tag_allreduce_rdbl : int
val tag_reduce_scatter_pairwise : int

(** The scatter and ring phases of the scatter-allgather bcast, both
    named after it. *)
val tag_bcast_scatter : int

val tag_bcast_ring : int
val tag_allreduce_rabenseifner : int
val tag_allgather_ring : int
val tag_exscan : int
val tag_neighbor_alltoallv : int
val tag_comm_split : int

(** One tag per halo direction: on a periodic dimension of extent 2 the
    one neighbour is both prev and next. *)
val tag_halo_to_prev : int

val tag_halo_to_next : int
val tag_bcast_serialized : int

(** The name of every user tag, ["p2p"]. *)
val p2p_name : string

(** The name of the entry [tag] belongs to, as a blocking tag or in any
    instance's window; {!p2p_name} for a user tag.  Preallocated. *)
val tag_name : int -> string

(** A user tag's number, an internal tag's {!tag_name}. *)
val describe_tag : int -> string

(** {1 Selection} *)

(** [choose model op ~bytes ~size ~commutative] picks the algorithm for
    one collective call: the pin for [op] if set and safe, otherwise the
    one whose closed-form time under [model] is least (DESIGN.md §6; an
    exact tie, as under [Net_model.zero_cost], keeps recursive doubling,
    Bruck, binomial or reduce + scatterv).  [bytes] is the total payload
    (per-rank contribution for allgather), [size] the communicator size,
    and [commutative] whether the operator tolerates reassociation across
    ranks (pass [true] for non-reducing collectives).  Pure and
    allocation-free: every rank of a communicator must pass identical
    arguments — MPI already requires matching signatures, and {!Check}
    enforces it. *)
val choose : Net_model.t -> op -> bytes:int -> size:int -> commutative:bool -> algo

(** {1 Pins} *)

(** Per-op pinned algorithms; [None] restores automatic selection. *)
type spec = (op * algo option) list

(** Parse a pin spec of the form ["op=alg[,op=alg]"], e.g.
    ["allreduce=rabenseifner,allgather=ring"].  [alg] may be ["auto"] to
    explicitly request automatic selection.  Separators [','] and [';']
    are both accepted.  Returns [Error msg] on unknown names or an
    algorithm that does not implement the op. *)
val parse_spec : string -> (spec, string) result

(** [pin spec model] is [model] with [spec]'s pins taking precedence over
    the ones it already carries; pass the result to [Engine.run ~model]. *)
val pin : spec -> Net_model.t -> Net_model.t

(** The algorithm [model] pins for [op], if any. *)
val pinned : Net_model.t -> op -> algo option

(** {1 Integer helpers shared with the algorithm implementations} *)

(** [ceil_log2 n] for [n >= 1]: smallest [k] with [2^k >= n]. *)
val ceil_log2 : int -> int

(** [floor_pow2 n] for [n >= 1]: largest power of two [<= n]. *)
val floor_pow2 : int -> int
