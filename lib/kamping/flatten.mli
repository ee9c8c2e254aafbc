(** The with_flattened utility (paper §IV-B, Fig. 9).

    Irregular algorithms naturally produce destination -> message-buffer
    mappings; dense exchanges want one contiguous buffer plus per-rank
    counts.  {!flatten} converts; {!alltoallv} composes the conversion
    with the exchange so a frontier exchange is a one-liner. *)

open Mpisim

(** [flatten ~size table] is (data grouped by destination rank, send
    counts).  Within a destination, elements keep their list order. *)
val flatten : size:int -> (int, 'a list) Hashtbl.t -> 'a array * int array

(** Flatten and exchange in one call. *)
val alltoallv : Communicator.t -> 'a Datatype.t -> (int, 'a list) Hashtbl.t -> 'a array
