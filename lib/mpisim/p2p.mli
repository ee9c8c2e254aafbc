(** Point-to-point communication.

    Sends are eager (buffered): the payload is packed and injected
    immediately, so a blocking {!send} never deadlocks against another
    send.  {!ssend}/{!issend} are synchronous: they complete only when the
    receiver has matched the message — the property the NBX sparse
    all-to-all (paper §V-A) builds on.

    Receives are either dynamic ({!recv} allocates an exact-size result
    from the matched message) or MPI-style ({!recv_into} with truncation
    checking).  All ranks are communicator ranks.

    Failure semantics: sending to a failed rank, or receiving from a
    failed rank that left no matching message, raises ERR_PROC_FAILED
    through the communicator's error handler. *)

(** Wildcard source ([MPI_ANY_SOURCE]). *)
val any_source : int

(** Wildcard tag ([MPI_ANY_TAG]). *)
val any_tag : int

(** Reserved tags above the user tag space, for internal protocols. *)
val internal_tag : int -> int

(** {1 Sends} *)

(** Eager send of a whole array.  [tag] defaults to 0 and must lie in the
    user tag range. *)
val send : Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> unit

(** Eager send of [count] elements starting at [pos]; does not validate
    the tag (internal protocols use reserved tags). *)
val send_range :
  Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> pos:int -> count:int -> unit

(** Synchronous send: returns once the receiver has matched. *)
val ssend : Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> unit

(** Non-blocking eager send; the request is immediately completable. *)
val isend : Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> Request.t

(** Non-blocking synchronous send; completes when matched. *)
val issend : Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> Request.t

(** Raw byte payload (the serialization fast path); element count equals
    the byte length. *)
val send_bytes : Comm.t -> dest:int -> ?tag:int -> Bytes.t -> unit

(** {1 Receives} *)

(** Dynamic receive: blocks until a matching message arrives and returns
    a fresh exact-size array. *)
val recv :
  Comm.t -> 'a Datatype.t -> ?source:int -> ?tag:int -> unit -> 'a array * Status.t

(** [recv] without the status: the same receive (span, profile entry and
    checks), returning only the data, so no status or pair is built. *)
val recv_array : Comm.t -> 'a Datatype.t -> ?source:int -> ?tag:int -> unit -> 'a array

(** MPI-style receive into caller storage; raises ERR_TRUNCATE if the
    message exceeds [maxcount] (default: the space after [pos]). *)
val recv_into :
  Comm.t ->
  'a Datatype.t ->
  ?source:int ->
  ?tag:int ->
  ?pos:int ->
  ?maxcount:int ->
  'a array ->
  Status.t

(** Non-blocking receive into caller storage. *)
val irecv_into :
  Comm.t ->
  'a Datatype.t ->
  ?source:int ->
  ?tag:int ->
  ?pos:int ->
  ?maxcount:int ->
  'a array ->
  Request.t

val recv_bytes : Comm.t -> ?source:int -> ?tag:int -> unit -> Bytes.t * Status.t

(** A typed non-blocking receive whose result buffer is allocated at
    completion from the matched message — the substrate of the binding
    layer's ownership-safe results (§III-E). *)
type 'a dyn_request = { base : Request.t; cell : 'a array option ref }

val irecv_dyn : Comm.t -> 'a Datatype.t -> ?source:int -> ?tag:int -> unit -> 'a dyn_request

val dyn_wait : 'a dyn_request -> 'a array * Status.t

val dyn_test : 'a dyn_request -> ('a array * Status.t) option

(** {1 Persistent operations (MPI-4)}

    [*_init] builds a {!Request.p} once — validating arguments, compiling
    the datatype plan and pre-warming a pooled writer — and every later
    {!Request.start}/{!Request.wait_p} cycle reuses the frozen state.
    Buffers are fixed at init, per MPI persistent-request semantics. *)

(** Persistent eager send of [count] elements of [data] starting at
    [pos]; each [start] injects the current buffer contents. *)
val send_init :
  Comm.t ->
  'a Datatype.t ->
  dest:int ->
  ?tag:int ->
  'a array ->
  pos:int ->
  count:int ->
  Request.p

(** Persistent receive into caller storage; each cycle posts the receive
    at [start] and unpacks into [into] at [wait_p].  Truncation raises
    ERR_TRUNCATE like {!recv_into}. *)
val recv_init :
  Comm.t ->
  'a Datatype.t ->
  ?source:int ->
  ?tag:int ->
  ?pos:int ->
  ?maxcount:int ->
  'a array ->
  Request.p

(** {1 Probing} *)

(** Block until a matching message is available (without receiving it). *)
val probe : Comm.t -> ?source:int -> ?tag:int -> unit -> Status.t

(** Non-blocking probe. *)
val iprobe : Comm.t -> ?source:int -> ?tag:int -> unit -> Status.t option

(** Combined send+receive; deadlock-free because sends are eager. *)
val sendrecv :
  Comm.t ->
  'a Datatype.t ->
  dest:int ->
  ?send_tag:int ->
  source:int ->
  ?recv_tag:int ->
  'a array ->
  'a array * Status.t
