(** Receive status: who sent, with which tag, how many elements and
    bytes. *)

type t

(** Communicator rank of the sender. *)
val source : t -> int

val tag : t -> int

(** Element count of the message. *)
val count : t -> int

(** Payload size in wire bytes. *)
val bytes : t -> int

val make : source:int -> tag:int -> count:int -> bytes:int -> t

(** MPI's empty status: what collectives and persistent cycles return. *)
val empty : t

val pp : Format.formatter -> t -> unit
