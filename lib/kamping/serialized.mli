(** Explicit serialization for communication (paper §III-D3, Fig. 5/11).

    Heap-structured values (strings, maps, lists) have no fixed-size
    datatype; these operations encode them through a {!Serial.Codec.t}
    into a framed archive and ship it as one [Datatype.bytes] element
    through the ordinary typed calls, so its traffic is costed, traced
    and checked like any message.  Usage is explicit — never implicit as
    in Boost.MPI — because serialization has real allocation and CPU
    costs that zero-overhead bindings must not hide. *)

open Mpisim

val send : Communicator.t -> 'a Serial.Codec.t -> dest:int -> ?tag:int -> 'a -> unit

val recv : Communicator.t -> 'a Serial.Codec.t -> ?source:int -> ?tag:int -> unit -> 'a

val recv_with_status :
  Communicator.t -> 'a Serial.Codec.t -> ?source:int -> ?tag:int -> unit -> 'a * Status.t

(** Broadcast of a serialized value ({!Collectives.bcast} of its
    archive); the root passes [~value] and gets it back undecoded.  This
    is the one-liner that replaces RAxML-NG's hand-rolled
    size-then-payload broadcast layer (§IV-C, Fig. 11). *)
val bcast : Communicator.t -> 'a Serial.Codec.t -> root:int -> ?value:'a -> unit -> 'a

(** Gather one serialized value per rank at the root (rank order);
    non-roots receive [] ({!Collectives.gather} of the archives). *)
val gather : Communicator.t -> 'a Serial.Codec.t -> root:int -> 'a -> 'a list

(** Sparse exchange of heterogeneous serialized messages: input and output
    are (rank, value) pairs, the output grouped by source rank in send
    order (a count {!Collectives.alltoall}, then an
    {!Collectives.alltoallv} of the archives). *)
val sparse_exchange :
  Communicator.t -> 'a Serial.Codec.t -> (int * 'a) list -> (int * 'a) list
