(** Collective operations, implemented with real algorithms on top of
    the point-to-point layer (binomial trees, Bruck concatenation, ring
    exchange, pairwise exchange, recursive halving/doubling,
    Hillis-Steele prefix), so modelled cost emerges from each algorithm's
    message pattern.  Each algorithm is written once, as a schedule of
    send and receive steps over caller buffers, and serves the blocking,
    the persistent and the nonblocking form of its operation.

    Operations with more than one algorithm (allreduce, allgather, bcast,
    reduce_scatter) consult {!Coll_algo.choose} per call: selection is
    keyed on payload bytes and communicator size against the thresholds
    in [Net_model.tuning], can be pinned via [MPISIM_COLL_ALGO] or
    {!Coll_algo.set_overrides}, and is observable through the
    [coll.algo.<op>.<algo>] stats counters, the communication matrix's
    algorithm labels and, for blocking calls, an [<op>.<algo>] trace
    span nested in the collective's span (a nonblocking or persistent
    schedule may suspend mid-algorithm, so it opens no spans).

    This layer mirrors MPI's semantics: variable-size collectives require
    counts (and, for alltoallv, displacements) as the standard does —
    computing sensible defaults is the binding layer's job (paper §III-A).

    Every collective raises ERR_REVOKED / ERR_PROC_FAILED per ULFM
    semantics when the communicator is revoked or a member has failed,
    and records its name in the strong-debug-mode trace. *)

(** Exclusive prefix sum of a counts array (displacement helper). *)
val exclusive_prefix_sum : int array -> int array

(** {1 Synchronization} *)

(** Dissemination barrier, O(log p) rounds. *)
val barrier : Comm.t -> unit

(** Non-blocking barrier, completed through the returned request.  The
    NBX sparse all-to-all builds on it. *)
val ibarrier : Comm.t -> Request.t

(** {1 One-to-all / all-to-one} *)

(** Broadcast.  The root passes [Some data]; all ranks return the
    payload.  Binomial tree, or binomial scatter + ring allgather for
    long messages. *)
val bcast : Comm.t -> 'a Datatype.t -> root:int -> 'a array option -> 'a array

(** Equal-count gather; the root returns the rank-ordered concatenation,
    others the empty array. *)
val gather : Comm.t -> 'a Datatype.t -> root:int -> 'a array -> 'a array

(** Variable-count gather; the root must supply [recv_counts]. *)
val gatherv :
  Comm.t -> 'a Datatype.t -> root:int -> ?recv_counts:int array -> 'a array -> 'a array

(** Equal-count scatter; the root passes [Some data] with length divisible
    by the communicator size. *)
val scatter : Comm.t -> 'a Datatype.t -> root:int -> 'a array option -> 'a array

(** Variable-count scatter; the root must supply [send_counts] and the
    data. *)
val scatterv :
  Comm.t ->
  'a Datatype.t ->
  root:int ->
  ?send_counts:int array ->
  'a array option ->
  'a array

(** {1 All-to-all} *)

(** Equal-count allgather: Bruck concatenation (O(log p) rounds), or
    ring for long messages. *)
val allgather : Comm.t -> 'a Datatype.t -> 'a array -> 'a array

(** Ring allgather: same result, p-1 rounds; kept for the
    algorithm-choice ablation. *)
val allgather_ring : Comm.t -> 'a Datatype.t -> 'a array -> 'a array

(** Variable-count allgather (ring); [recv_counts] required on every rank
    as in MPI. *)
val allgatherv : Comm.t -> 'a Datatype.t -> recv_counts:int array -> 'a array -> 'a array

(** Uniform all-to-all (pairwise exchange); data length must be a multiple
    of the communicator size. *)
val alltoall : Comm.t -> 'a Datatype.t -> 'a array -> 'a array

(** Variable all-to-all.  All counts and displacements are required, as in
    MPI.  Empty pairs are skipped, but every rank pays the O(p) count-scan
    cost (paper §V-A). *)
val alltoallv :
  Comm.t ->
  'a Datatype.t ->
  send_counts:int array ->
  send_displs:int array ->
  recv_counts:int array ->
  recv_displs:int array ->
  'a array ->
  'a array

(** Alltoallw-style exchange: pays per-peer derived-datatype setup and
    exchanges with every peer, empty or not — models why MPL's lowering of
    vector collectives onto alltoallw is slow (paper §II). *)
val alltoallw :
  Comm.t ->
  'a Datatype.t ->
  send_counts:int array ->
  recv_counts:int array ->
  'a array ->
  'a array

(** {1 Reductions} *)

(** Elementwise reduction to the root: binomial tree for commutative
    operations, gather + rank-ordered fold otherwise. *)
val reduce : Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> root:int -> 'a array -> 'a array

(** Elementwise reduction delivered to every rank: recursive doubling
    for short messages, Rabenseifner (recursive-halving reduce-scatter +
    recursive-doubling allgather) for long commutative ones, and the
    order-safe reduce+bcast lowering for non-commutative operators. *)
val allreduce : Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array

(** Inclusive prefix (Hillis-Steele, order-preserving). *)
val scan : Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array

(** Exclusive prefix; [None] on rank 0 (undefined in MPI). *)
val exscan : Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array option

val allreduce_single : Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a -> 'a

val scan_single : Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a -> 'a

val exscan_single : Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a -> 'a option

(** {1 Neighborhood collectives (graph topologies, §V-A)} *)

(** Send one block to every out-neighbor; returns one block per
    in-neighbor, in source order.  Requires a topology communicator. *)
val neighbor_allgather : Comm.t -> 'a Datatype.t -> 'a array -> 'a array array

(** Variable-size neighbor exchange: block [i] of the data goes to
    [destinations.(i)]; the result concatenates one block per source. *)
val neighbor_alltoallv :
  Comm.t ->
  'a Datatype.t ->
  send_counts:int array ->
  recv_counts:int array ->
  'a array ->
  'a array

(** {1 Reduce-scatter} *)

(** Elementwise reduction of a [p * count]-element vector whose reduced
    block [r] is delivered to rank [r].  Pairwise exchange (O(n) peak
    buffer) for commutative operators; reduce + scatter otherwise. *)
val reduce_scatter_block :
  Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array

(** Per-rank block sizes: [recv_counts.(r)] reduced elements go to rank
    [r]. *)
val reduce_scatter :
  Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> recv_counts:int array -> 'a array -> 'a array

(** {1 Persistent collectives (MPI-4)}

    [*_init] freezes everything a cycle does not strictly need at init —
    the {!Coll_algo} selection for this (bytes, size) key, the
    [coll.algo.*] counter and profiling handles, working buffers, block
    tables, and a pre-warmed pooled writer — and returns a {!Request.p}
    cycled with {!Request.start}/{!Request.wait_p}.  Buffers are fixed at
    init per MPI persistent semantics; each cycle reads the current
    contents.

    The frozen algorithm (and its counter attribution) is exactly what
    every ad-hoc call with the same signature would pick, because
    {!Coll_algo.choose} only depends on inputs that change between runs.
    A single-rank cycle is fully allocation-free; multi-rank cycles still
    allocate in transport but skip all per-call setup.

    Progress semantics match the nonblocking collectives: [start] runs
    the schedule until a receive whose message has not arrived,
    {!Request.test_p} advances it, and {!Request.wait_p} completes it. *)

(** Reduce [src] into [dst] each cycle ([src == dst] for in-place). *)
val allreduce_init :
  Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> src:'a array -> dst:'a array -> Request.p

(** Broadcast the root's [buf] contents into every rank's [buf] each
    cycle.  Unlike {!bcast}, the buffer argument exists on every rank
    (MPI-style), so no count rendezvous is needed. *)
val bcast_init : Comm.t -> 'a Datatype.t -> root:int -> 'a array -> Request.p

(** Reduce [src] and scatter block [r] (of [recv_counts.(r)] elements)
    into [dst] each cycle. *)
val reduce_scatter_init :
  Comm.t ->
  'a Datatype.t ->
  'a Reduce_op.t ->
  recv_counts:int array ->
  src:'a array ->
  dst:'a array ->
  Request.p

(** {1 Non-blocking collectives}

    The call posts the blocking operation's schedule and returns at its
    first receive whose message has not arrived yet.  {!Request.test}
    takes every step whose message has arrived by the rank's virtual
    clock (a test at the same clock as the previous one, as in a polling
    loop, also takes one that is merely in the mailbox), so computation
    between tests overlaps the collective; {!Request.wait} runs it to
    completion.  The collective is recorded once under its own name with
    its payload bytes.  An MPI error raised while posting (a revoked
    communicator, a failed member) surfaces at test/wait.  The result
    cell is filled at completion. *)

val ibcast :
  Comm.t -> 'a Datatype.t -> root:int -> 'a array option -> Request.t * 'a array option ref

val iallreduce :
  Comm.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> Request.t * 'a array option ref

val ialltoallv :
  Comm.t ->
  'a Datatype.t ->
  send_counts:int array ->
  send_displs:int array ->
  recv_counts:int array ->
  recv_displs:int array ->
  'a array ->
  Request.t * 'a array option ref

val ireduce_scatter :
  Comm.t ->
  'a Datatype.t ->
  'a Reduce_op.t ->
  recv_counts:int array ->
  'a array ->
  Request.t * 'a array option ref
