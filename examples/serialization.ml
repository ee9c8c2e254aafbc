(* Explicit serialization (paper §III-D3, Fig. 5 and Fig. 11): sending a
   string-keyed dictionary between ranks, and broadcasting a structured
   model the way the RAxML-NG integration does.  [Serialized.datatype
   codec] turns a codec into a datatype, the analogue of KaMPIng's
   [as_serialized]/[as_deserializable]: the ordinary typed calls carry
   it like any other.

     dune exec examples/serialization.exe *)

open Mpisim

let dict_type =
  Kamping.Serialized.datatype (Serial.Codec.hashtbl Serial.Codec.string Serial.Codec.string)

let model_type = Kamping.Serialized.datatype Phylo.Model.codec

let () =
  let report =
    Engine.run ~check_level:Example_cli.check_level ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Kamping.Communicator.rank comm in

        (* Fig. 5: send an unordered_map<string,string> with
           as_serialized / as_deserializable. *)
        if r = 0 then begin
          let dict : (string, string) Hashtbl.t = Hashtbl.create 4 in
          Hashtbl.replace dict "library" "kamping-ocaml";
          Hashtbl.replace dict "venue" "SPAA'24";
          Hashtbl.replace dict "overhead" "(near) zero";
          Kamping.P2p.send_single comm dict_type ~dest:1 dict
        end
        else if r = 1 then begin
          let dict = Kamping.P2p.recv_single comm dict_type ~source:0 () in
          Printf.printf "rank 1 received %d entries: overhead = %s\n" (Hashtbl.length dict)
            (Hashtbl.find dict "overhead")
        end;

        (* Fig. 11: broadcasting a structured model object. *)
        let model =
          if r = 0 then Some (Phylo.Model.initial ~n_branches:8 ~n_partitions:2) else None
        in
        let m = Kamping.Collectives.bcast_single comm model_type ~root:0 ?value:model () in
        if r = 3 then
          Printf.printf "rank 3 received model generation %d with %d branch lengths\n"
            m.Phylo.Model.generation
            (Array.length m.Phylo.Model.branch_lengths))
  in
  Printf.printf "simulated time: %s\n" (Sim_time.to_string report.Engine.max_time)
