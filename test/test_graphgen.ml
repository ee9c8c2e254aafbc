(* Tests for the distributed graph generators: structural invariants
   (symmetry, no self loops, valid ids), determinism, and the qualitative
   family properties that drive Fig. 10 (locality / degree skew). *)

open Mpisim
open Graphgen

let qtest = QCheck_alcotest.to_alcotest

(* Gather the full adjacency structure of a distributed graph. *)
let gather_graph ~p gen =
  let results =
    Engine.run_values ~ranks:p (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let g = gen comm in
        let adj =
          List.init (Distgraph.n_local g) (fun l ->
              let u = Distgraph.global_of_local g l in
              let ns = ref [] in
              Distgraph.iter_neighbors g l (fun v -> ns := v :: !ns);
              (u, List.rev !ns))
        in
        (adj, Distgraph.n_global g, Distgraph.global_stats comm g))
  in
  let adj = List.concat_map (fun (a, _, _) -> a) (Array.to_list results) in
  let _, n, stats = results.(0) in
  (adj, n, stats)

let check_structure name gen () =
  let p = 4 in
  let adj, n, _ = gather_graph ~p gen in
  let tbl = Hashtbl.create 256 in
  List.iter (fun (u, ns) -> Hashtbl.replace tbl u ns) adj;
  Alcotest.(check int) (name ^ ": every vertex present") n (Hashtbl.length tbl);
  List.iter
    (fun (u, ns) ->
      List.iter
        (fun v ->
          Alcotest.(check bool) (name ^ ": valid id") true (v >= 0 && v < n);
          Alcotest.(check bool) (name ^ ": no self loop") true (v <> u);
          let back = try Hashtbl.find tbl v with Not_found -> [] in
          Alcotest.(check bool)
            (Printf.sprintf "%s: edge (%d,%d) symmetric" name u v)
            true (List.mem u back))
        ns;
      (* sorted, no duplicates *)
      Alcotest.(check bool) (name ^ ": sorted unique") true
        (ns = List.sort_uniq compare ns))
    adj

let check_determinism name gen () =
  let a, _, _ = gather_graph ~p:4 gen in
  let b, _, _ = gather_graph ~p:4 gen in
  Alcotest.(check bool) (name ^ ": identical across runs") true (a = b)

let gnm comm = Gnm.generate comm ~n_per_rank:48 ~m_per_rank:144 ~seed:17

let rgg comm = Rgg2d.generate comm ~n_per_rank:48 ~seed:17 ()

let rhg comm = Rhg.generate comm ~n_per_rank:48 ~seed:17 ()

let test_family_properties () =
  let _, _, gnm_stats = gather_graph ~p:8 gnm in
  let _, _, rgg_stats = gather_graph ~p:8 rgg in
  let _, _, rhg_stats = gather_graph ~p:8 rhg in
  (* GNM has essentially no locality; RGG is strongly local. *)
  Alcotest.(check bool) "rgg cut < gnm cut" true
    (rgg_stats.Distgraph.cut_fraction < gnm_stats.Distgraph.cut_fraction);
  (* RHG has degree skew (hubs). *)
  Alcotest.(check bool) "rhg max degree > gnm max degree" true
    (rhg_stats.Distgraph.max_degree > gnm_stats.Distgraph.max_degree);
  (* All families are non-trivial. *)
  List.iter
    (fun s -> Alcotest.(check bool) "has edges" true (s.Distgraph.edge_endpoints > 0))
    [ gnm_stats; rgg_stats; rhg_stats ]

(* Graph structure must be independent of how many ranks generated it. *)
let prop_gnm_rank_count_invariant =
  QCheck.Test.make ~name:"gnm invariant under p (fixed n, m)" ~count:8
    QCheck.(pair (Arb.ranks 1 6) (Arb.ranks 1 6))
    (fun (p1, p2) ->
      (* Keep global n and m constant across rank counts. *)
      let n_total = 48 and m_total = 96 in
      let gen ~p comm =
        Gnm.generate comm ~n_per_rank:(n_total / p) ~m_per_rank:(m_total / p) ~seed:23
      in
      (* n_per_rank * p must equal n_total: only use divisors. *)
      let ok p = n_total mod p = 0 && m_total mod p = 0 in
      if not (ok p1 && ok p2) then true
      else begin
        let adj1, _, _ = gather_graph ~p:p1 (gen ~p:p1) in
        let adj2, _, _ = gather_graph ~p:p2 (gen ~p:p2) in
        List.sort compare adj1 = List.sort compare adj2
      end)

let test_owner_block_distribution () =
  ignore
    (Engine.run ~ranks:3 (fun mpi ->
         let comm = Kamping.Communicator.of_mpi mpi in
         let g = Gnm.generate comm ~n_per_rank:10 ~m_per_rank:20 ~seed:3 in
         for v = 0 to Distgraph.n_global g - 1 do
           let o = Distgraph.owner g v in
           assert (o = v / 10)
         done;
         if Comm.rank mpi = 1 then begin
           assert (Distgraph.first_vertex g = 10);
           assert (Distgraph.is_local g 15);
           assert (not (Distgraph.is_local g 25));
           assert (Distgraph.local_of_global g 15 = 5);
           assert (Distgraph.global_of_local g 5 = 15)
         end))

let tests =
  [
    Alcotest.test_case "gnm structure" `Quick (check_structure "gnm" gnm);
    Alcotest.test_case "rgg structure" `Quick (check_structure "rgg" rgg);
    Alcotest.test_case "rhg structure" `Quick (check_structure "rhg" rhg);
    Alcotest.test_case "gnm determinism" `Quick (check_determinism "gnm" gnm);
    Alcotest.test_case "rgg determinism" `Quick (check_determinism "rgg" rgg);
    Alcotest.test_case "rhg determinism" `Quick (check_determinism "rhg" rhg);
    Alcotest.test_case "family properties" `Slow test_family_properties;
    qtest prop_gnm_rank_count_invariant;
    Alcotest.test_case "block distribution" `Quick test_owner_block_distribution;
  ]

let () = Alcotest.run "graphgen" [ ("graphgen", tests) ]
