(** Distributed containers with bulk-parallel operations — paper §VI's
    MapReduce/Thrill-inspired building blocks, built directly on the
    binding layer (the communicator stays accessible: no walled garden).

    A ['a t] is a block-distributed array; each rank owns a contiguous
    slice and lower ranks hold lower global indices.  All operations are
    collective. *)

open Mpisim

type 'a t

val comm : 'a t -> Kamping.Communicator.t

val local : 'a t -> 'a array

val local_length : 'a t -> int

val global_length : 'a t -> int

(** Global index of the first local element. *)
val offset : 'a t -> int

(** Build from per-rank slices of any sizes (offsets via exscan). *)
val of_local : Kamping.Communicator.t -> 'a Datatype.t -> 'a array -> 'a t

(** Generate from a function of the global index, evenly distributed. *)
val init : Kamping.Communicator.t -> 'a Datatype.t -> n:int -> (int -> 'a) -> 'a t

val map : ('a -> 'b) -> 'b Datatype.t -> 'a t -> 'b t

(** [f] also receives the global index. *)
val mapi : (int -> 'a -> 'b) -> 'b Datatype.t -> 'a t -> 'b t

val reduce : 'a Reduce_op.t -> init:'a -> 'a t -> 'a

(** Even redistribution (one alltoallv), preserving global order. *)
val balance : 'a t -> 'a t

(** Keep elements satisfying the predicate; rebalanced. *)
val filter : ('a -> bool) -> 'a t -> 'a t

(** Global sort (sample sort), rebalanced. *)
val sort : ?compare:('a -> 'a -> int) -> 'a t -> 'a t

(** The MapReduce shuffle: key every element, hash-partition by key, fold
    equal keys with the associative [combine]; results are distributed by
    key hash, sorted within each rank. *)
val reduce_by_key :
  'a t ->
  key_dt:'k Datatype.t ->
  value_dt:'v Datatype.t ->
  key_of:('a -> 'k) ->
  value_of:('a -> 'v) ->
  combine:('v -> 'v -> 'v) ->
  ('k * 'v) array

(** Materialize everywhere (small data only). *)
val to_global : 'a t -> 'a array
