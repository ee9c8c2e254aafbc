(* Quickstart: the vector-allgather example of the paper's Figures 1-3.

   Each rank holds a vector of different length; we want the concatenation
   everywhere.  The three versions show the gradual-migration story
   (Fig. 3): start from explicit MPI-style code, let the library infer
   more and more, and end with the one-liner.

     dune exec examples/quickstart.exe *)

open Mpisim

let () =
  let ranks = 4 in
  let report =
    Engine.run ~ranks (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Kamping.Communicator.rank comm in
        let v = Array.init (r + 1) (fun i -> (10 * r) + i) in

        (* Version 1: counts gathered and displacements computed by hand,
           result placed in an explicitly managed buffer. *)
        let rc = Kamping.Collectives.allgather comm Datatype.int [| Array.length v |] in
        let rd = Array.make ranks 0 in
        for i = 1 to ranks - 1 do
          rd.(i) <- rd.(i - 1) + rc.(i - 1)
        done;
        let v1 =
          Kamping.Collectives.allgatherv comm Datatype.int ~recv_counts:rc ~recv_displs:rd
            v
        in

        (* Version 2: displacements are computed implicitly. *)
        let v2 = Kamping.Collectives.allgatherv comm Datatype.int ~recv_counts:rc v in

        (* Version 3: counts are automatically exchanged and the result is
           returned by value — the one-liner. *)
        let v3 = Kamping.Collectives.allgatherv comm Datatype.int v in

        assert (v1 = v3 && v2 = v3);

        (* The same call through the paper's named-parameter objects
           (Fig. 1): factories, any order, and out-parameters
           (recv_counts_out / recv_displs_out of §III-B) opted into the
           result object. *)
        let named =
          Kamping.Named.(
            allgatherv comm Datatype.int
              [ send_buf v; recv_counts_out (); recv_displs_out () ])
        in
        let counts = Kamping.Named.extract_recv_counts named in
        assert (Kamping.Named.extract_recv_buf named = v3);
        assert (Kamping.Named.extract_recv_displs named = rd);

        if r = 0 then begin
          Printf.printf "global vector: [%s]\n"
            (String.concat "; " (Array.to_list (Array.map string_of_int v3)));
          Printf.printf "recv counts:   [%s]\n"
            (String.concat "; " (Array.to_list (Array.map string_of_int counts)))
        end)
  in
  Printf.printf "simulated time: %s on %d ranks\n"
    (Sim_time.to_string report.Engine.max_time)
    ranks
