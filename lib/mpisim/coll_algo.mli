(** Collective-algorithm selection engine.

    Real MPI implementations switch between several algorithms per
    collective based on message size and communicator size (MPICH's 2KB
    recursive-doubling cutoff for allreduce, ring vs Bruck allgather,
    scatter+allgather bcast for long messages).  This module centralizes
    that decision for the simulator: {!Coll} asks {!choose} which
    algorithm to run, keyed on (payload bytes, communicator size,
    operator commutativity) against the thresholds in
    {!Net_model.coll_tuning}.

    The automatic choice can be overridden per operation, either
    programmatically ({!set_overrides}) or externally via the
    [MPISIM_COLL_ALGO] environment variable / [repro_cli --coll-algo],
    using specs like ["allreduce=rabenseifner,allgather=ring"].
    Overrides never bypass correctness guards: a non-commutative operator
    always stays on the order-safe reference lowering regardless of any
    override.

    Overrides are global, deliberately: algorithm selection must agree on
    every rank of a run, so they may only change between [Engine.run]s,
    never during one. *)

(** A collective with more than one algorithm available. *)
type op = Allreduce | Allgather | Bcast | Reduce_scatter

(** The algorithm families.  Not every algorithm applies to every op; see
    {!valid_for}. *)
type algo =
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

(** {1 Selection} *)

(** [choose model op ~bytes ~size ~commutative ~elems] picks the
    algorithm for one collective call: the override for [op] if set and
    safe, otherwise the automatic bytes/size-keyed choice against
    [model.tuning].  [bytes] is the total payload (per-rank contribution
    for allgather), [size] the communicator size, [elems] the element
    count of the reduced vector (allreduce only; pass 0 elsewhere), and
    [commutative] whether the operator tolerates reassociation across
    ranks (pass [true] for non-reducing collectives).  Every rank of a
    communicator must pass identical arguments — MPI already requires
    matching signatures, and {!Check} enforces it. *)
val choose :
  Net_model.t -> op -> bytes:int -> size:int -> commutative:bool -> elems:int -> algo

(** {1 Frozen selection (persistent operations)}

    A persistent [*_init] request fixes its algorithm once at init.
    Because {!choose} is a pure function of inputs that only change
    between runs (tuning, overrides), the frozen choice is identical to
    what each ad-hoc call with the same signature would pick — so
    persistent and ad-hoc runs attribute to the same
    [coll.algo.<op>.<algo>] counter. *)

type frozen = {
  frozen_op : op;
  frozen_algo : algo;
  frozen_counter : string;  (** = [counter_name frozen_op frozen_algo] *)
  frozen_span : string;  (** = [span_name frozen_op frozen_algo] *)
}

(** Same arguments and semantics as {!choose}, with the names resolved. *)
val freeze :
  Net_model.t -> op -> bytes:int -> size:int -> commutative:bool -> elems:int -> frozen

(** {1 Overrides} *)

(** Per-op pinned algorithms; [None] restores automatic selection. *)
type spec = (op * algo option) list

(** Parse an override spec of the form ["op=alg[,op=alg]"], e.g.
    ["allreduce=rabenseifner,allgather=ring"].  [alg] may be ["auto"] to
    explicitly request automatic selection.  Separators [','] and [';']
    are both accepted.  Returns [Error msg] on unknown names or an
    algorithm that does not implement the op. *)
val parse_spec : string -> (spec, string) result

(** Install overrides (replacing any previous ones for the same ops).
    Must not be called while an [Engine.run] (or [Engine.run_many]) is
    in flight. *)
val set_overrides : spec -> unit

(** Drop every override, including any installed from the environment. *)
val clear_overrides : unit -> unit

(** The pinned algorithm for [op], if any. *)
val override_for : op -> algo option

(** Re-read [MPISIM_COLL_ALGO] and install it on top of a clean slate
    (an unset or empty variable clears everything).  Called once at
    module initialization; tests that mutate the environment call it
    directly.  An unparseable value is ignored with a warning on stderr
    rather than aborting the host program. *)
val refresh_from_env : unit -> unit

(** {1 Integer helpers shared with the algorithm implementations} *)

(** [ceil_log2 n] for [n >= 1]: smallest [k] with [2^k >= n]. *)
val ceil_log2 : int -> int

(** [floor_pow2 n] for [n >= 1]: largest power of two [<= n]. *)
val floor_pow2 : int -> int
