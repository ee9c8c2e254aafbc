(* Network cost model for the simulated message-passing runtime.

   We use a LogGP-flavoured alpha-beta model:

   - a point-to-point message of [b] bytes occupies the sender for
     [send_overhead + b * byte_time] seconds and arrives at the receiver
     [latency] seconds after injection completes;
   - the receiver pays [recv_overhead] plus an unpack cost of
     [copy_byte_time] per byte (unpacking is additionally measured as real
     CPU work when the hybrid clock is active, see {!Clock});
   - collectives are built from point-to-point messages, so their cost
     emerges from the algorithm's critical path; Coll_algo predicts that
     path from these same terms to pick the cheapest algorithm.

   Extra knobs model implementation artifacts the paper relies on:

   - [alltoallw_type_setup]: per-peer derived-datatype construction cost of
     MPI_Alltoallw-style calls.  MPL lowers variable-size collectives to
     alltoallw; this constant is why that lowering is slower (paper §II, [9]).
   - [dense_scan_byte]: per-rank cost of scanning the O(p) count arrays of
     dense variable collectives (paper §V-A: time linear in communicator
     size even when the pattern is sparse).
   - [topo_setup_per_rank]: cost, per member rank, of building a (neighbor)
     graph topology communicator. *)

(* The collectives with more than one algorithm, and the algorithms
   (Coll_algo re-exports both with their documentation). *)
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
  latency : float;  (* seconds of wire latency per message (alpha_net) *)
  send_overhead : float;  (* sender CPU seconds per message (o_s) *)
  recv_overhead : float;  (* receiver CPU seconds per message (o_r) *)
  byte_time : float;  (* seconds per byte on the wire (beta) *)
  copy_byte_time : float;  (* seconds per byte for local pack/unpack *)
  alltoallw_type_setup : float;  (* per-peer datatype setup in alltoallw *)
  dense_scan_byte : float;  (* per-rank scan cost of dense vector collectives *)
  topo_setup_per_rank : float;  (* graph-topology construction, per rank *)
  pins : (coll_op * coll_algo option) list;  (* Coll_algo.pin; first per op wins *)
}

(* An OmniPath-like interconnect: ~1.5us latency, 100 Gbit/s = 12.5 GB/s. *)
let omnipath =
  {
    name = "omnipath";
    latency = 1.5e-6;
    send_overhead = 0.4e-6;
    recv_overhead = 0.4e-6;
    byte_time = 1. /. 12.5e9;
    copy_byte_time = 1. /. 40e9;
    alltoallw_type_setup = 0.8e-6;
    dense_scan_byte = 1.0e-9;
    topo_setup_per_rank = 0.5e-6;
    pins = [];
  }

(* Commodity ethernet: higher latency, 10 Gbit/s. *)
let ethernet =
  {
    name = "ethernet";
    latency = 25e-6;
    send_overhead = 2e-6;
    recv_overhead = 2e-6;
    byte_time = 1. /. 1.25e9;
    copy_byte_time = 1. /. 20e9;
    alltoallw_type_setup = 3e-6;
    dense_scan_byte = 2e-9;
    topo_setup_per_rank = 2e-6;
    pins = [];
  }

(* Free communication: useful for correctness tests where modelled time is
   irrelevant and for isolating binding-layer CPU overhead. *)
let zero_cost =
  {
    name = "zero";
    latency = 0.;
    send_overhead = 0.;
    recv_overhead = 0.;
    byte_time = 0.;
    copy_byte_time = 0.;
    alltoallw_type_setup = 0.;
    dense_scan_byte = 0.;
    topo_setup_per_rank = 0.;
    pins = [];
  }

let[@inline] send_busy_time m ~bytes = m.send_overhead +. (float_of_int bytes *. m.byte_time)

let[@inline] transit_time m = m.latency

let recv_busy_time m ~bytes =
  m.recv_overhead +. (float_of_int bytes *. m.copy_byte_time)
