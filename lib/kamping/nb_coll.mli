(** Non-blocking collectives through the ownership-safe result interface
    (§III-E applied to collectives): results are only reachable via
    {!Nb.wait}/{!Nb.test}.

    Progress semantics: as in MPI without an asynchronous progress
    thread, each {!Nb.test} takes the steps whose messages have arrived,
    so work between tests overlaps the collective, and every blocking
    wait of the rank advances it. *)

open Mpisim

val ibcast :
  Communicator.t -> 'a Datatype.t -> root:int -> ?data:'a array -> unit -> 'a array Nb.t

val iallreduce : Communicator.t -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array Nb.t

(** Non-blocking reduce-scatter; omitted [recv_counts] defaults to an
    as-even-as-possible split, computed locally. *)
val ireduce_scatter :
  Communicator.t ->
  'a Datatype.t ->
  'a Reduce_op.t ->
  ?recv_counts:int array ->
  'a array ->
  'a array Nb.t

(** Counts are inferred eagerly (one alltoall at call time) when omitted;
    the data exchange progresses as above. *)
val ialltoallv :
  Communicator.t ->
  'a Datatype.t ->
  send_counts:int array ->
  ?recv_counts:int array ->
  'a array ->
  'a array Nb.t

val ibarrier : Communicator.t -> unit Nb.t
