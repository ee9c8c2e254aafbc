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

(** Build a symmetric distributed graph from locally generated directed
    edges: each (u, v) contributes both directions, routed to the owners
    with one alltoallv; self loops and duplicates are dropped.
    Collective. *)
val build_from_edges : Kamping.Communicator.t -> n_global:int -> (int * int) list -> t

type stats = {
  vertices : int;
  edge_endpoints : int;
  cut_fraction : float;  (** fraction of edge endpoints crossing ranks *)
  max_degree : int;
}

(** Collective. *)
val global_stats : Kamping.Communicator.t -> t -> stats
