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
    through the communicator's error handler.  Every receive form (and
    {!probe}) wakes on its match, on its source's failure, or on a
    revocation its source has observed, and then raises ERR_PROC_FAILED
    or ERR_REVOKED; a receive whose match is already there completes
    with it. *)

(** Wildcard source ([MPI_ANY_SOURCE]). *)
val any_source : int

(** Wildcard tag ([MPI_ANY_TAG]).  It matches user tags only, never the
    reserved tags of collectives and other internal protocols. *)
val any_tag : int

(** Op ids from here up are the tag windows of posted and persistent
    collectives, one window per instance ([Coll]).  The reserved tags
    below them are the entries of {!Coll_algo}'s tag table. *)
val first_window_op : int

(** {1 Sends} *)

(** Eager send of a whole array.  [tag] defaults to 0 and must lie in the
    user tag range. *)
val send : Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> unit

(** Eager send of [count] elements starting at [pos]; does not validate
    the tag (internal protocols use reserved tags), and takes it as a
    plain argument, so a protocol's send boxes no option. *)
val send_range :
  Comm.t -> 'a Datatype.t -> dest:int -> tag:int -> 'a array -> pos:int -> count:int -> unit

(** Synchronous send: returns once the receiver has matched. *)
val ssend : Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> unit

(** Non-blocking eager send; the request is immediately completable. *)
val isend : Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> Request.t

(** Non-blocking synchronous send; completes when matched. *)
val issend : Comm.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> Request.t

(** {1 Receives} *)

(** Dynamic receive: blocks until a matching message arrives and returns
    a fresh exact-size array. *)
val recv :
  Comm.t -> 'a Datatype.t -> ?source:int -> ?tag:int -> unit -> 'a array * Status.t

(** [recv] without the status: the same receive (span, profile entry and
    checks), returning only the data, so no status or pair is built. *)
val recv_array : Comm.t -> 'a Datatype.t -> ?source:int -> ?tag:int -> unit -> 'a array

(** [recv_array] with every argument given, as internal protocols (the
    collectives' steps, [Cart], [Comm_ops]) call it: no optional
    argument to box per message. *)
val recv_fresh : Comm.t -> 'a Datatype.t -> source:int -> tag:int -> 'a array

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

(** {2 A collective's receive and forward steps}

    No optional argument and no status to allocate per message. *)

(** [recv_into]'s receive (span, profile entry and checks, [maxcount]
    included) up to the payload: returns the matched message, whose
    payload the caller then reads ({!read_into}) or folds ({!fold_into})
    and finally recycles ({!release}), or sends on ({!send_slice}). *)
val recv_message :
  Comm.t -> 'a Datatype.t -> source:int -> tag:int -> maxcount:int -> Message.t

(** Unpack a received message's [count] elements into caller storage at
    [pos]; the message keeps its payload. *)
val read_into : 'a Datatype.t -> Message.t -> 'a array -> pos:int -> unit

(** Reduce a received message's elements into [acc] from [pos] straight
    from its payload ({!Datatype.fold_slice}); the message keeps it. *)
val fold_into :
  'a Datatype.t ->
  'a Reduce_op.t ->
  incoming_left:bool ->
  Message.t ->
  'a array ->
  pos:int ->
  unit

(** Return a received message's payload storage to the receiver's pool. *)
val release : Comm.t -> Message.t -> unit

(** [send_slice comm dt ~dest ~tag ~count payload ~off ~len] sends the
    bytes [payload, off, len), [count] elements of [dt] already packed,
    as they are: the new message takes the slice over without a copy.
    It charges, injects and records (the [send] profile row, the trace
    events) what packing the elements with [send_range] would. *)
val send_slice :
  Comm.t ->
  'a Datatype.t ->
  dest:int ->
  tag:int ->
  count:int ->
  Bytes.t ->
  off:int ->
  len:int ->
  unit

(** {2 Storage several ranks read}

    A payload that a ring passes on holds a count of the ranks that
    still have to read it, in the {!shared_trailer} bytes after it
    ({!set_readers}, written by the packer).  Each reader calls
    {!release_shared} once it has written the elements out; the reader
    whose release takes the count to zero returns the storage to the
    pool of world rank [home], so storage is recycled once, after its
    last read (DESIGN.md §4). *)

val shared_trailer : int

(** [set_readers storage ~at n]: [n] readers, the count at byte [at]. *)
val set_readers : Bytes.t -> at:int -> int -> unit

(** [release_shared comm storage ~at ~home] gives up one reader's claim
    on [storage], whose count is at byte [at] (the payload's end).  Call
    it once per reader. *)
val release_shared : Comm.t -> Bytes.t -> at:int -> home:int -> unit

(** [send_packed comm dt ~dest ~tag ~count payload ~off ~len] sends a
    copy of the bytes [payload, off, len), [count] elements of [dt]
    already packed, and keeps them: how a payload bound for several ranks
    is packed once.  It charges, injects and records what packing the
    elements with [send_range] would; the host copies bytes where a
    pack would run a {!Datatype.framed} type's encoder again. *)
val send_packed :
  Comm.t ->
  'a Datatype.t ->
  dest:int ->
  tag:int ->
  count:int ->
  Bytes.t ->
  off:int ->
  len:int ->
  unit

(** [matchable comm ~arrived ~source ~tag]: a receive for an exact
    (source, tag) posted now would not wait — a matching message is in
    the mailbox, or the source has failed or seen the communicator
    revoked.  With [~arrived:true] the message must also have arrived by
    the rank's virtual clock.  Scheduler-safe and allocation-free; the
    readiness rule of a collective schedule's steps. *)
val matchable : Comm.t -> arrived:bool -> source:int -> tag:int -> bool

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

(** Dynamic non-blocking receive: the result array is allocated at
    completion with exactly the received size and put in the cell, which
    holds [None] until {!Request.wait}/{!Request.test} completes the
    request — the substrate of the binding layer's ownership-safe results
    (§III-E). *)
val irecv :
  Comm.t ->
  'a Datatype.t ->
  ?source:int ->
  ?tag:int ->
  unit ->
  Request.t * 'a array option ref

(** {1 Persistent operations (MPI-4)}

    [*_init] builds an inactive persistent {!Request.t} once — validating
    arguments and pre-warming a pooled writer — and every later
    {!Request.start}/{!Request.wait} cycle reuses the frozen state.  A
    cycle completes with {!Status.empty}.  Buffers are fixed at init, per
    MPI persistent-request semantics. *)

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
  Request.t

(** Persistent receive into caller storage; each cycle posts the receive
    at [start] and unpacks into [into] at completion.  Truncation raises
    ERR_TRUNCATE like {!recv_into}. *)
val recv_init :
  Comm.t ->
  'a Datatype.t ->
  ?source:int ->
  ?tag:int ->
  ?pos:int ->
  ?maxcount:int ->
  'a array ->
  Request.t

(** {1 Probing} *)

(** Block until a matching message is available (without receiving it). *)
val probe : Comm.t -> ?source:int -> ?tag:int -> unit -> Status.t

(** Non-blocking probe.  With no match queued, a source that has failed
    or observed the communicator's revocation raises [ERR_PROC_FAILED] /
    [ERR_REVOKED], as {!probe} does, so a poll loop cannot spin forever. *)
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
