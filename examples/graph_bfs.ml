(* Distributed BFS over a generated graph (paper Fig. 9/10), with the
   frontier-exchange strategy selectable from the command line.

     dune exec examples/graph_bfs.exe -- [--check LEVEL] [ranks] [family] [exchanger]

   family:    gnm | rgg | rhg
   exchanger: mpi | mpi_neighbor | mpi_neighbor_rebuild | kamping |
              kamping_sparse | kamping_grid *)

open Mpisim

let parse_family = function
  | "gnm" -> `Gnm
  | "rgg" -> `Rgg
  | "rhg" -> `Rhg
  | s -> failwith ("unknown graph family: " ^ s)

let parse_exchanger s =
  match
    List.find_opt (fun e -> Bfs.Exchangers.exchanger_name e = s) Bfs.Exchangers.all
  with
  | Some e -> e
  | None -> failwith ("unknown exchanger: " ^ s)

let () =
  let ranks = Example_cli.arg 0 int_of_string ~default:16 in
  let family = Example_cli.arg 1 parse_family ~default:`Rgg in
  let exchanger = Example_cli.arg 2 parse_exchanger ~default:Bfs.Exchangers.Kamping in
  let n_per_rank = 512 in
  let results, report =
    Engine.run_collect ~check_level:Example_cli.check_level ~ranks (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let g =
          match family with
          | `Gnm ->
              Graphgen.Gnm.generate comm ~n_per_rank ~m_per_rank:(n_per_rank * 4) ~seed:1
          | `Rgg -> Graphgen.Rgg2d.generate comm ~n_per_rank ~seed:1 ()
          | `Rhg -> Graphgen.Rhg.generate comm ~n_per_rank ~seed:1 ()
        in
        let dist = Bfs.Exchangers.bfs mpi g ~source:0 ~exchanger in
        let reached = Array.fold_left (fun a d -> if d < max_int then a + 1 else a) 0 dist in
        let eccentricity =
          Array.fold_left (fun a d -> if d < max_int && d > a then d else a) 0 dist
        in
        let stats = Graphgen.Distgraph.global_stats comm g in
        (reached, eccentricity, stats))
  in
  let reached = ref 0 and ecc = ref 0 in
  Array.iter
    (function
      | Some (r, e, _) ->
          reached := !reached + r;
          if e > !ecc then ecc := e
      | None -> ())
    results;
  let stats = match results.(0) with Some (_, _, s) -> s | None -> assert false in
  Printf.printf "graph: %d vertices, %d edge endpoints, cut fraction %.2f, max degree %d\n"
    stats.Graphgen.Distgraph.vertices stats.Graphgen.Distgraph.edge_endpoints
    stats.Graphgen.Distgraph.cut_fraction stats.Graphgen.Distgraph.max_degree;
  Printf.printf "BFS from vertex 0 reached %d vertices; max level %d\n" !reached !ecc;
  Printf.printf "exchanger: %s, simulated time: %s\n"
    (Bfs.Exchangers.exchanger_name exchanger)
    (Sim_time.to_string report.Engine.max_time)
