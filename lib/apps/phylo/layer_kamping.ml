(* The binding-layer version (the "after" of Fig. 11): the whole
   hand-rolled broadcast collapses into one serialized-broadcast call. *)

open Mpisim

let model_type = Kamping.Serialized.datatype Model.codec

let broadcast_model mpi ~root (m : Model.t option) : Model.t =
  Kamping.Collectives.bcast_single (Kamping.Communicator.of_mpi mpi) model_type ~root
    ?value:m ()

let allreduce_score mpi (x : float) : float =
  Kamping.Collectives.allreduce_single (Kamping.Communicator.of_mpi mpi) Datatype.float
    Reduce_op.float_sum x
