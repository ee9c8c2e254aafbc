(** Sparse all-to-all via the NBX algorithm (Hoefler et al., PPoPP'10) —
    the SparseAlltoall plugin of paper §V-A.

    Exchanges a dynamic sparse pattern in expected O(#neighbors + log p)
    with no O(p) term: synchronous-mode sends, probe-driven receives, and
    a non-blocking barrier entered once all local sends have been
    matched. *)

open Mpisim

(** [alltoallv comm dt outgoing] sends each (rank, block) and returns the
    incoming (source, block) pairs.  Collective (every rank must call it,
    possibly with an empty list). *)
val alltoallv :
  Kamping.Communicator.t -> 'a Datatype.t -> (int * 'a array) list -> (int * 'a array) list
