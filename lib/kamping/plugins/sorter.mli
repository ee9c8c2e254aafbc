(** STL-like distributed sorter plugin (paper §IV-A, Fig. 7): textbook
    sample sort.

    After {!sort}, data is globally sorted across ranks: every element on
    rank i precedes every element on rank i+1; local sizes may differ
    (splitter balance). *)

open Mpisim

(** Collective.  Deterministic in [seed]; [compare] defaults to
    polymorphic comparison, [oversampling] to 16. *)
val sort :
  Kamping.Communicator.t ->
  'a Datatype.t ->
  ?compare:('a -> 'a -> int) ->
  ?oversampling:int ->
  ?seed:int ->
  'a array ->
  'a array

(** Collective check of the global sortedness invariant; all ranks get the
    same verdict. *)
val is_globally_sorted :
  Kamping.Communicator.t ->
  'a Datatype.t ->
  ?compare:('a -> 'a -> int) ->
  'a array ->
  bool
