(* Must not compile: allreduce accepts no root. *)
open Mpisim

let call comm =
  Kamping.Named.(
    allreduce comm Datatype.int [ send_buf [| 1 |]; op Reduce_op.int_sum; root 0 ])
