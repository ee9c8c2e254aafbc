(** High-level persistent operations (MPI-4 surface).

    [*_init] pays all per-call setup once — argument validation,
    algorithm selection, datatype plan, counter handles, working
    buffers — and returns an inactive persistent {!Mpisim.Request.t}:

    {[
      let req = Persistent.allreduce_init comm Datatype.int Reduce_op.int_sum ~src ~dst in
      for _ = 1 to iterations do
        (* ... update src in place ... *)
        Request.start req;
        ignore (Request.wait req)
      done;
      Request.free req
    ]}

    Buffers are fixed at init per MPI persistent-request semantics; each
    cycle reads and writes their current contents. *)

type comm = Communicator.t

(** Persistent send of the whole buffer; each [Request.start] injects
    its current contents.  [tag] defaults to 0. *)
val send_init :
  comm -> 'a Mpisim.Datatype.t -> dest:int -> ?tag:int -> 'a array -> Mpisim.Request.t

(** Persistent receive into [into]; posted at [Request.start],
    unpacked at completion. *)
val recv_init :
  comm -> 'a Mpisim.Datatype.t -> ?source:int -> ?tag:int -> 'a array -> Mpisim.Request.t

(** Persistent broadcast of the root's buffer contents into every rank's
    buffer.  [root] defaults to 0. *)
val bcast_init : comm -> 'a Mpisim.Datatype.t -> ?root:int -> 'a array -> Mpisim.Request.t

(** Persistent allreduce of [src] into [dst] each cycle. *)
val allreduce_init :
  comm ->
  'a Mpisim.Datatype.t ->
  'a Mpisim.Reduce_op.t ->
  src:'a array ->
  dst:'a array ->
  Mpisim.Request.t

(** Persistent reduce-scatter; [recv_counts] defaults to
    {!Collectives.even_split} of [src], as in the blocking and nonblocking
    calls. *)
val reduce_scatter_init :
  comm ->
  'a Mpisim.Datatype.t ->
  'a Mpisim.Reduce_op.t ->
  ?recv_counts:int array ->
  src:'a array ->
  dst:'a array ->
  unit ->
  Mpisim.Request.t
