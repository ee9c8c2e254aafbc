(** Ownership-safe non-blocking communication (paper §III-E, Fig. 6).

    A ['a t] is a "non-blocking result": it encapsulates the request AND
    the data involved.  The only way to reach the data is {!wait} (blocks,
    returns it) or {!test} ([Some data] once complete).  Send buffers are
    conceptually moved into the call and handed back on completion, so
    well-typed code cannot touch a buffer that is still in flight — the
    guarantee rsmpi gets from Rust's ownership model. *)

open Mpisim

type 'a t

val of_request : fetch:(unit -> 'a) -> Request.t -> 'a t

(** The result of an operation that fills the cell when its request
    completes ({!Mpisim.P2p.irecv}, the posted collectives of
    {!Mpisim.Coll}). *)
val of_cell : Request.t * 'a option ref -> 'a t

(** Block until complete; returns the payload.  Idempotent. *)
val wait : 'a t -> 'a

(** [Some payload] once the operation completed, [None] before. *)
val test : 'a t -> 'a option

val is_complete : 'a t -> bool

(** Discard the payload (for pooling heterogeneous results). *)
val forget : 'a t -> unit t

(** Send with buffer ownership transfer: the array is moved into the call
    and returned by {!wait}. *)
val isend : Communicator.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> 'a array t

(** Synchronous-mode non-blocking send: completes when matched. *)
val issend :
  Communicator.t -> 'a Datatype.t -> dest:int -> ?tag:int -> 'a array -> 'a array t

(** Dynamic non-blocking receive: the result buffer is created at
    completion with exactly the received size. *)
val irecv : Communicator.t -> 'a Datatype.t -> ?source:int -> ?tag:int -> unit -> 'a array t

