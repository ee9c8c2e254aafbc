(** Grid all-to-all (Kalé et al.) — the GridCommunicator plugin of paper
    §V-A for k = 2, and the higher-dimensional generalization that §VI
    lists as work in progress.

    Messages travel k hops through a d_1 x ... x d_k grid (one coordinate
    corrected per hop, fastest first), each hop an alltoallv on a
    subcommunicator of size d_i: O(k * p^(1/k)) startups per rank instead
    of O(p), at the price of per-element destination headers and k-fold
    payload forwarding.  All traffic sharing a next hop is aggregated into
    one message.  k = 1 degenerates to a direct dense exchange.

    The grid requires full rows: p is the exact product of the extents.
    For k = 2 the grid is rows x cols with cols the largest divisor of p
    not above ceil(sqrt p); for powers of two it is near-square, for
    prime p the exchange degenerates to a direct alltoallv. *)

open Mpisim

type t

(** Exact factorization of [p] into [k] near-equal extents, listed slowest
    to fastest (rank r's coordinate in a dimension of stride s and extent
    e is r / s mod e).  Each extent, fastest first, is the largest divisor
    of what remains of [p] not above its near-equal share; extents of 1
    are possible when p lacks factors. *)
val factorize : k:int -> int -> int array

(** Collective: builds one subcommunicator per dimension; reuse the handle
    across exchanges. *)
val create : k:int -> Kamping.Communicator.t -> t

val size : t -> int

(** The grid's extents, as {!factorize}. *)
val dims : t -> int array

(** [alltoallv t dt ~send_counts data] routes a personalized exchange
    through the grid; [send_counts.(d)] elements go to global rank [d].
    The result holds every element addressed to this rank, grouped by the
    last-hop sender rather than the original source — payloads must carry
    any provenance the application needs.  Collective. *)
val alltoallv : t -> 'a Datatype.t -> send_counts:int array -> 'a array -> 'a array
