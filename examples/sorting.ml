(* Distributed sample sort (paper Fig. 7) through the sorter plugin.

     dune exec examples/sorting.exe -- [--check LEVEL] [ranks] [elements-per-rank] *)

open Mpisim

let () =
  let ranks = Example_cli.arg 0 int_of_string ~default:8 in
  let per_rank = Example_cli.arg 1 int_of_string ~default:100_000 in
  let results, report =
    Engine.run_collect ~check_level:Example_cli.check_level ~ranks (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let rng = Xoshiro.create ~seed:2024 ~stream:(Comm.rank mpi) in
        let data = Array.init per_rank (fun _ -> Xoshiro.next_int rng ~bound:max_int) in
        let sorted = Kamping_plugins.Sorter.sort comm Datatype.int data in
        let ok = Kamping_plugins.Sorter.is_globally_sorted comm Datatype.int sorted in
        (ok, Array.length sorted))
  in
  let total = ref 0 in
  Array.iter
    (function
      | Some (ok, len) ->
          assert ok;
          total := !total + len
      | None -> ())
    results;
  Printf.printf "sorted %d elements on %d ranks: globally sorted = true\n" !total ranks;
  Printf.printf "simulated time: %s\n" (Sim_time.to_string report.Engine.max_time);
  Printf.printf "final local sizes: [%s]\n"
    (String.concat "; "
       (Array.to_list
          (Array.map (function Some (_, l) -> string_of_int l | None -> "-") results)))
