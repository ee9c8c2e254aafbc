(* Must not compile: allgatherv accepts no reduction op. *)
open Mpisim

let call comm =
  Kamping.Named.(allgatherv comm Datatype.int [ send_buf [| 1 |]; op Reduce_op.int_sum ])
