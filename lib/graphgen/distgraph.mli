(** Distributed graphs in adjacency-array (CSR) form.

    Vertices are block-distributed: rank [r] owns a contiguous range of
    size ceil(n/p), so ownership is computable locally from a vertex id.
    Neighbor lists store global ids, sorted and deduplicated. *)

(** The layout and CSR arrays are readable in place, so a per-edge loop
    can run over them with no call per edge (DESIGN.md §13).
    Callers must not write to [xadj] or [adjncy]. *)
type t = private {
  n_global : int;
  comm_size : int;
  rank : int;
  first_vertex : int;
  n_local : int;
  chunk : int;  (** [chunk_size ~n_global ~comm_size]: vertex [v] lives on [v / chunk] *)
  xadj : int array;  (** length [n_local + 1]: row [l] is [adjncy.(xadj.(l)) ..] *)
  adjncy : int array;  (** global neighbor ids, sorted per vertex *)
}

val chunk_size : n_global:int -> comm_size:int -> int

val owner_of : n_global:int -> comm_size:int -> int -> int

(** Owner rank of a global vertex. *)
val owner : t -> int -> int

val is_local : t -> int -> bool

(** Raises [Usage_error] if the vertex is not local. *)
val local_of_global : t -> int -> int

val global_of_local : t -> int -> int

val n_local : t -> int

val n_global : t -> int

val first_vertex : t -> int

(** Degree of a local vertex (by local index). *)
val degree : t -> int -> int

(** Iterate the global neighbor ids of a local vertex. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** Number of local edge endpoints. *)
val local_edge_count : t -> int

(** Local edge endpoints whose other end is remote. *)
val cut_edge_count : t -> int

(** Locally generated edges, bucketed by the rank that owns each
    endpoint in flat int buffers. *)
module Edges : sig
  type t

  (** An empty buffer for a graph of [n_global] vertices distributed over
      the communicator's ranks. *)
  val create : Kamping.Communicator.t -> n_global:int -> t

  (** [add es u v] records the undirected edge {u, v}: [u -> v] for [u]'s
      owner and [v -> u] for [v]'s.  A self loop is dropped.  Raises
      [Usage_error] if [u] or [v] is not in [0, n_global). *)
  val add : t -> int -> int -> unit
end

(** Build a symmetric distributed graph from locally generated edges,
    routed to their owners with one int alltoallv; self loops and
    duplicates are dropped.  Raises [Usage_error] if an edge arrives at
    a rank that does not own its source (ranks disagreed on
    [n_global]).  Collective. *)
val build_from_edges : Kamping.Communicator.t -> Edges.t -> t

type stats = {
  vertices : int;
  edge_endpoints : int;
  cut_fraction : float;  (** fraction of edge endpoints crossing ranks *)
  max_degree : int;
}

(** Collective. *)
val global_stats : Kamping.Communicator.t -> t -> stats
