(** High-level collectives with default-parameter computation (paper
    §III-A, §III-B).

    OCaml's optional labelled arguments play the role of KaMPIng's named
    parameters: any subset of the MPI-level arguments can be supplied, by
    name and in any order; omitted ones are computed by the library, with
    extra communication only when unavoidable:

    - send counts default to the send buffer's length;
    - [allgatherv] receive counts default to an allgather of the send
      counts; [alltoallv]'s to an alltoall of the send counts;
      [gatherv]'s to a gather of the send counts;
    - displacements default to exclusive prefix sums.  Given ones place
      each block as MPI does: [allgatherv]'s block [s] lands at
      [recv_displs.(s)] in a result of length [max (displ + count)], whose
      elements no block covers are the datatype's zero.  On a [gatherv]
      non-root, counts and displacements are empty either way.

    Each operation returns its receive buffer by value; result objects
    with the computed out-parameters (§III-B) and caller-supplied
    receive buffers (§III-C) are spelled through {!Named}.

    When every parameter is supplied, exactly one underlying collective is
    issued and no auxiliary allocation happens — the zero-overhead path,
    verified by the profiling tests and the Bechamel benchmarks. *)

open Mpisim

type comm = Communicator.t

val exclusive_prefix_sum : int array -> int array

(** {1 Broadcast} *)

(** The root passes [~data]; every rank returns the payload. *)
val bcast : comm -> 'a Datatype.t -> root:int -> ?data:'a array -> unit -> 'a array

(** One value: the root passes [~value] and gets it back; the others
    return it.  With a {!Serialized.datatype} this is the one-liner that
    replaces RAxML-NG's hand-rolled size-then-payload broadcast layer
    (§IV-C, Fig. 11). *)
val bcast_single : comm -> 'a Datatype.t -> root:int -> ?value:'a -> unit -> 'a

(** {1 Gather family} *)

val allgather : comm -> 'a Datatype.t -> 'a array -> 'a array

(** In-place allgather (the send_recv_buf idiom, §III-G): slot [rank] of
    the buffer is this rank's contribution; all slots are filled in place
    and the array is also returned. *)
val allgather_inplace : comm -> 'a Datatype.t -> 'a array -> 'a array

val allgatherv :
  comm ->
  'a Datatype.t ->
  ?send_count:int ->
  ?recv_counts:int array ->
  ?recv_displs:int array ->
  'a array ->
  'a array

val gather : comm -> 'a Datatype.t -> root:int -> 'a array -> 'a array

val gatherv :
  comm ->
  'a Datatype.t ->
  root:int ->
  ?send_count:int ->
  ?recv_counts:int array ->
  'a array ->
  'a array

val scatter : comm -> 'a Datatype.t -> root:int -> ?data:'a array -> unit -> 'a array

val scatterv :
  comm ->
  'a Datatype.t ->
  root:int ->
  ?send_counts:int array ->
  ?data:'a array ->
  unit ->
  'a array

(** {1 All-to-all} *)

val alltoall : comm -> 'a Datatype.t -> 'a array -> 'a array

val alltoallv :
  comm ->
  'a Datatype.t ->
  send_counts:int array ->
  ?send_displs:int array ->
  ?recv_counts:int array ->
  ?recv_displs:int array ->
  'a array ->
  'a array

(** {1 Reductions} *)

val reduce : comm -> 'a Datatype.t -> 'a Reduce_op.t -> root:int -> 'a array -> 'a array

val allreduce : comm -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array

val allreduce_single : comm -> 'a Datatype.t -> 'a Reduce_op.t -> 'a -> 'a

(** Reduce element-wise, then scatter blocks of the result:
    [recv_counts.(r)] reduced elements go to rank [r].  Omitted
    [recv_counts] defaults to an as-even-as-possible split of the vector
    (the first [len mod p] ranks get one extra element) — computed
    locally, no extra communication. *)
val reduce_scatter :
  comm -> 'a Datatype.t -> 'a Reduce_op.t -> ?recv_counts:int array -> 'a array -> 'a array

(** The default [recv_counts] of every reduce-scatter (blocking,
    nonblocking and persistent): [len] elements split over [size] ranks
    as evenly as possible, the first [len mod size] ranks getting one
    extra. *)
val even_split : len:int -> size:int -> int array

(** [reduce_scatter] with the uniform block size [len / p] ([len] must be
    divisible by [p]). *)
val reduce_scatter_block : comm -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array

val scan : comm -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array

val scan_single : comm -> 'a Datatype.t -> 'a Reduce_op.t -> 'a -> 'a

val exscan : comm -> 'a Datatype.t -> 'a Reduce_op.t -> 'a array -> 'a array option

(** Exclusive prefix with an explicit rank-0 value — avoids MPI_Exscan's
    undefined-on-rank-0 footgun. *)
val exscan_single_or : comm -> 'a Datatype.t -> 'a Reduce_op.t -> init:'a -> 'a -> 'a

val barrier : comm -> unit
