(** Network cost model (LogGP-flavoured alpha-beta model).

    A point-to-point message of [b] bytes occupies the sender for
    [send_overhead + b * byte_time] and arrives [latency] after injection;
    the receiver pays [recv_overhead] plus unpacking.  Collectives are
    built from point-to-point messages, so their cost emerges from the
    algorithm's critical path; {!Coll_algo.choose} predicts that path
    from these same terms and runs the cheapest algorithm.  The extra
    knobs model the implementation artifacts the paper's experiments
    depend on (alltoallw datatype setup, dense count-array scans,
    topology construction). *)

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
  pins : (coll_op * coll_algo option) list;
      (** pinned algorithms, first entry per op wins ({!Coll_algo.pin});
          [None] or no entry selects the cheapest (presets pin nothing) *)
}

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
