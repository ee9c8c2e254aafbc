(** The named-parameter front-end — the paper's signature interface
    (Fig. 1): each argument is a parameter object built by a factory
    function, passed in any order; omitted parameters are computed by the
    library; out-parameters opt computed values into the result object.

    {[
      let result =
        Named.allgatherv comm Datatype.int
          [ send_buf v; recv_counts_out (); recv_displs_out () ]
      in
      let v_global = Named.extract_recv_buf result in
      let counts = Named.extract_recv_counts result in
    ]}

    As in C++ KaMPIng, a parameter the operation does not accept is a
    compile-time error (§III-G): each factory tags its parameter with a
    phantom kind, and each operation's list type admits only the kinds it
    accepts.  [allgatherv comm dt [ send_buf v; op o ]] is rejected with
    "This expression has type (int, [> `op ] as 'a) Kamping.Named.param …
    but an expression was expected of type (int, [< `recv_buf |
    `recv_counts | … > `send_buf ] as 'b) Kamping.Named.param … The
    second variant type does not allow tag(s) `op".  A
    missing required parameter, a duplicate, or both [send_buf] and
    [send_recv_buf] raise a usage error at call entry naming the
    operation and the parameter: a list type bounds which kinds may
    appear, not which must appear or how often.

    This module is the one spelling of result objects (§III-B) and
    caller-supplied receive buffers (§III-C); {!Collectives} is the
    labelled-argument by-value spelling of the same operations. *)

open Mpisim

(** A parameter over element type ['a] whose kind ['k] is the one tag of
    the factory that built it. *)
type ('a, +'k) param

(** {1 Parameter factories (the Fig. 1 vocabulary)} *)

val send_buf : 'a array -> ('a, [> `send_buf ]) param

(** The in-place spelling (§III-G): the buffer is both input slot and
    output. *)
val send_recv_buf : 'a array -> ('a, [> `send_recv_buf ]) param

val send_counts : int array -> ('a, [> `send_counts ]) param

val send_count : int -> ('a, [> `send_count ]) param

val recv_counts : int array -> ('a, [> `recv_counts ]) param

(** Request the computed receive counts in the result object. *)
val recv_counts_out : unit -> ('a, [> `recv_counts_out ]) param

val recv_displs : int array -> ('a, [> `recv_displs ]) param

val recv_displs_out : unit -> ('a, [> `recv_displs_out ]) param

val send_displs : int array -> ('a, [> `send_displs ]) param

(** Also write the receive buffer into [v] under [policy] (§III-C).  The
    operation still allocates its fresh result array, then copies it
    into [v]: a blit when [v] has room ([No_resize], or [Grow_only] with
    room), a second fresh array under [Resize_to_fit] (and [Grow_only]
    when [v] is too small).  It saves no allocation; it hands the result
    to a container the caller keeps. *)
val recv_buf : ?policy:Resize_policy.t -> 'a Vec.t -> ('a, [> `recv_buf ]) param

val root : int -> ('a, [> `root ]) param

val op : 'a Reduce_op.t -> ('a, [> `op ]) param

(** {1 Result objects (§III-B)} *)

type 'a result

val extract_recv_buf : 'a result -> 'a array

(** Raises a usage error naming the missing [_out] parameter if it was not
    requested. *)
val extract_recv_counts : 'a result -> int array

val extract_recv_displs : 'a result -> int array

(** Structured-binding style: (recv_buf, recv_counts?, recv_displs?). *)
val decompose : 'a result -> 'a array * int array option * int array option

(** {1 Operations}

    Each signature lists the parameter kinds the operation accepts. *)

(** Requires [send_buf]. *)
val allgatherv :
  Communicator.t ->
  'a Datatype.t ->
  ( 'a,
    [< `send_buf
    | `send_count
    | `recv_counts
    | `recv_counts_out
    | `recv_displs
    | `recv_displs_out
    | `recv_buf ] )
  param
  list ->
  'a result

(** Requires [send_buf] and [send_counts]. *)
val alltoallv :
  Communicator.t ->
  'a Datatype.t ->
  ( 'a,
    [< `send_buf
    | `send_counts
    | `send_displs
    | `recv_counts
    | `recv_counts_out
    | `recv_displs
    | `recv_displs_out
    | `recv_buf ] )
  param
  list ->
  'a result

(** Requires exactly one of [send_buf] and [send_recv_buf]. *)
val allgather :
  Communicator.t ->
  'a Datatype.t ->
  ('a, [< `send_buf | `send_recv_buf | `recv_buf ]) param list ->
  'a result

(** Requires [send_buf] and [root]. *)
val gatherv :
  Communicator.t ->
  'a Datatype.t ->
  ('a, [< `send_buf | `root | `recv_counts | `recv_counts_out | `recv_buf ]) param list ->
  'a result

(** Requires [root]; the root also passes [send_buf]. *)
val bcast :
  Communicator.t ->
  'a Datatype.t ->
  ('a, [< `send_buf | `root | `recv_buf ]) param list ->
  'a result

(** Requires [send_buf] and [op]. *)
val allreduce :
  Communicator.t ->
  'a Datatype.t ->
  ('a, [< `send_buf | `op | `recv_buf ]) param list ->
  'a result
