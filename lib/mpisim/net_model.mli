(** Network cost model (LogGP-flavoured alpha-beta model).

    A point-to-point message of [b] bytes occupies the sender for
    [send_overhead + b * byte_time] and arrives [latency] after injection;
    the receiver pays [recv_overhead] plus unpacking.  Collectives are
    built from point-to-point messages, so their cost emerges from the
    algorithm rather than from a formula.  The extra knobs model the
    implementation artifacts the paper's experiments depend on (alltoallw
    datatype setup, dense count-array scans, topology construction). *)

(** Per-link fault rates for the chaos plane.  Probabilities are per
    transmission attempt; [jitter] bounds a uniform extra transit delay in
    seconds.  All-zero rates describe a perfect link. *)
type link_rates = {
  drop : float;
  duplicate : float;
  reorder : float;
  corrupt : float;
  jitter : float;
}

(** Retransmission policy of the chaos plane's reliable-delivery layer.
    [rto = None] derives the base timeout from the model (4 x latency);
    [backoff] multiplies the timeout per failed attempt; [jitter_cap]
    bounds the accumulated random extra transit delay of one delivery. *)
type retry_policy = {
  max_retries : int;  (** retransmissions before escalating to ERR_PROC_FAILED *)
  rto : float option;  (** base retransmit timeout; [None] = 4 x latency *)
  backoff : float;  (** per-attempt timeout multiplier, >= 1 *)
  jitter_cap : float;  (** upper bound on accumulated jitter, seconds *)
}

(** 8 retries, model-derived rto, binary exponential backoff, unbounded
    jitter — the historical hardcoded behaviour. *)
val default_retry : retry_policy

(** Default rates for every link plus per-link overrides, keyed by
    (src world rank, dst world rank), and the retransmission policy the
    reliable layer applies on top of them. *)
type fault_profile = {
  default_rates : link_rates;
  link_overrides : ((int * int) * link_rates) list;
  retry : retry_policy;
}

(** The collectives with more than one algorithm, and the algorithms;
    documented where {!Coll_algo} re-exports them. *)
type coll_op = Allreduce | Allgather | Bcast | Reduce_scatter

type coll_algo =
  | Reduce_bcast
  | Recursive_doubling
  | Rabenseifner
  | Bruck
  | Ring
  | Binomial
  | Scatter_allgather
  | Reduce_scatterv
  | Pairwise

(** Thresholds steering the collective-algorithm engine ({!Coll_algo}).
    All cutoffs are payload bytes; defaults mirror the switch-over points
    real MPI implementations use. *)
type coll_tuning = {
  allreduce_rdbl_max_bytes : int;
      (** at or below: recursive-doubling allreduce; above: Rabenseifner *)
  allgather_ring_min_bytes : int;
      (** per-rank contribution at or above which ring replaces Bruck *)
  bcast_scatter_min_bytes : int;
      (** total payload at or above which scatter+ring replaces binomial *)
  reduce_scatter_pairwise_min_bytes : int;
      (** total payload at or above which pairwise exchange replaces the
          reduce-to-root + scatter reference lowering *)
  pins : (coll_op * coll_algo option) list;
      (** pinned algorithms, first entry per op wins ({!Coll_algo.pin});
          [None] or no entry selects automatically *)
}

(** 2KB recursive-doubling cutoff, 32KB ring allgather, 64KB
    scatter+allgather bcast, 2KB pairwise reduce_scatter cutoff, no
    pins. *)
val default_tuning : coll_tuning

type t = {
  name : string;
  latency : float;  (** wire latency per message, seconds (alpha) *)
  send_overhead : float;  (** sender CPU per message (o_s) *)
  recv_overhead : float;  (** receiver CPU per message (o_r) *)
  byte_time : float;  (** seconds per byte on the wire (beta) *)
  copy_byte_time : float;  (** local pack/unpack cost per byte *)
  alltoallw_type_setup : float;
      (** per-peer derived-datatype construction in alltoallw-style calls *)
  dense_scan_byte : float;
      (** per-rank scan cost of the O(p) count arrays of dense vector
          collectives *)
  topo_setup_per_rank : float;
      (** graph-topology communicator construction, per member rank *)
  faults : fault_profile option;
      (** lossy-network model for the chaos plane; [None] (the presets'
          value) means perfect links and costs nothing on the data path *)
  tuning : coll_tuning;
      (** collective algorithm switch-over points (presets use
          [default_tuning]) *)
}

(** All-zero link rates. *)
val perfect_link : link_rates

(** The profile equivalent of perfect links. *)
val no_faults : fault_profile

(** A moderately lossy rate set (2% drop, 1% duplicate/reorder, 0.5%
    corrupt, jitter = [latency]). *)
val lossy_rates : latency:float -> link_rates

(** [lossy m] is [m] with the default lossy profile attached. *)
val lossy : t -> t

(** [with_faults m profile] is [m] with [profile] attached. *)
val with_faults : t -> fault_profile -> t

(** The rates governing link [src -> dst] (world ranks): the override if
    one exists, the profile default otherwise. *)
val rates_for : fault_profile -> src:int -> dst:int -> link_rates

(** An OmniPath-like interconnect (~1.5us latency, 100 Gbit/s) — the
    SuperMUC-NG analogue used by the paper-reproduction benchmarks. *)
val omnipath : t

(** Commodity ethernet: 25us latency, 10 Gbit/s. *)
val ethernet : t

(** Free communication: isolates binding-layer CPU cost in
    microbenchmarks and correctness tests. *)
val zero_cost : t

(** Time the sender is busy injecting a [bytes]-byte message. *)
val send_busy_time : t -> bytes:int -> float

(** Wire transit time of a message. *)
val transit_time : t -> float

(** Receiver-side cost of accepting a [bytes]-byte message. *)
val recv_busy_time : t -> bytes:int -> float

val pp : Format.formatter -> t -> unit
