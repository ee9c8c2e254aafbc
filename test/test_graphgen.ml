(* Tests for the distributed graph generators: structural invariants
   (symmetry, no self loops, valid ids), determinism, and the qualitative
   family properties that drive Fig. 10 (locality / degree skew). *)

open Mpisim
open Graphgen

let qtest = QCheck_alcotest.to_alcotest

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Gather the full adjacency structure of a distributed graph. *)
let gather_graph ?clock_mode ~p gen =
  let results =
    Engine.run_values ?clock_mode ~ranks:p (fun mpi ->
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

(* [build_from_edges] against a list-based reference: edge [(a, u, v)]
   is added on rank [a mod p] as [{u mod n, v mod n}], so small [n] gives
   self loops, duplicates and both orientations of one edge. *)
let reference_rows ~n edges =
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u <> v then begin
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v)
      end)
    edges;
  Array.map (List.sort_uniq compare) adj

let prop_build_from_edges =
  QCheck.Test.make ~name:"build_from_edges matches a reference CSR" ~count:60
    QCheck.(
      triple (Arb.ranks 1 6) (int_range 1 24)
        (list_of_size Gen.(int_range 0 60) (triple small_nat small_nat small_nat)))
    (fun (p, n, raw) ->
      let edges = List.map (fun (a, u, v) -> (a mod p, u mod n, v mod n)) raw in
      let rows = reference_rows ~n (List.map (fun (_, u, v) -> (u, v)) edges) in
      let build comm =
        let es = Distgraph.Edges.create comm ~n_global:n in
        let r = Kamping.Communicator.rank comm in
        List.iter (fun (a, u, v) -> if a = r then Distgraph.Edges.add es u v) edges;
        Distgraph.build_from_edges comm es
      in
      let adj, _, _ = gather_graph ~p build in
      adj = List.init n (fun u -> (u, rows.(u))))

let expect_usage_error ~ranks ~mentions f =
  let check msg =
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "message %S mentions %S" msg needle)
          true
          (has_sub msg needle))
      mentions
  in
  match Engine.run ~ranks f with
  | _ -> Alcotest.fail "expected Usage_error"
  | exception Scheduler.Aborted { exn = Errdefs.Usage_error msg; _ } -> check msg
  | exception Errdefs.Usage_error msg -> check msg

let test_edge_errors () =
  expect_usage_error ~ranks:2 ~mentions:[ "vertex 8 out of range" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      Distgraph.Edges.add (Distgraph.Edges.create comm ~n_global:8) 1 8);
  expect_usage_error ~ranks:2 ~mentions:[ "vertex -1 out of range" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      Distgraph.Edges.add (Distgraph.Edges.create comm ~n_global:8) (-1) 3);
  (* Ranks that disagree on [n_global] route by different blocks: rank 1
     (12 vertices, blocks of 6) sends edge {4, 5} to rank 0, which (8
     vertices, blocks of 4) does not own 4 or 5. *)
  expect_usage_error ~ranks:2 ~mentions:[ "misrouted edge (4, 5) at rank 0" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      let r = Comm.rank mpi in
      let es = Distgraph.Edges.create comm ~n_global:(if r = 0 then 8 else 12) in
      if r = 1 then Distgraph.Edges.add es 4 5;
      ignore (Distgraph.build_from_edges comm es))

(* RGG radius extremes: 1e-9 leaves every vertex isolated and must not
   size its grid by the radius (1e9 cells across); 1.5 exceeds the unit
   square's diagonal, so on two ranks the graph is complete. *)
let test_radius_extremes () =
  let p = 4 and n_per_rank = 12 in
  let gen radius comm = Rgg2d.generate comm ~n_per_rank ?radius ~seed:5 () in
  let _, _, tiny = gather_graph ~p (gen (Some 1e-9)) in
  Alcotest.(check int) "1e-9: no edges" 0 tiny.Distgraph.edge_endpoints;
  (* Under the virtual clock the runs' schedules, and so their
     allocations, do not depend on host timing.  Read without a minor
     collection first, some QCheck seeds of the earlier cases left the
     1e-9 reading high by most of a minor heap (1,847,406 bytes against
     41,263); [Alloc.measure] runs one. *)
  let allocated radius =
    let (), words =
      Alloc.measure (fun () ->
          ignore (gather_graph ~clock_mode:Runtime.Virtual_only ~p (gen radius)))
    in
    Alloc.bytes words
  in
  let tiny_bytes = allocated (Some 1e-9) and default_bytes = allocated None in
  if tiny_bytes > default_bytes then
    Alcotest.failf "1e-9 allocated %.0f bytes, the default radius %.0f" tiny_bytes
      default_bytes;
  (* 1.5 exceeds the unit square's diagonal: the graph is complete. *)
  let adj, _, _ = gather_graph ~p:2 (gen (Some 1.5)) in
  List.iter
    (fun (u, ns) ->
      Alcotest.(check (list int))
        (Printf.sprintf "1.5: vertex %d sees every other" u)
        (List.filter (( <> ) u) (List.init (2 * n_per_rank) Fun.id))
        ns)
    adj;
  expect_usage_error ~ranks:2 ~mentions:[ "radius"; "negative" ] (fun mpi ->
      ignore (gen (Some (-0.1)) (Kamping.Communicator.of_mpi mpi)))

(* The RGG against a brute-force scan of every pair of points (the
   generator's own hashes): the halo must reach every strip within
   [radius], also when [radius] exceeds a strip's height 1/p — at 16 × 48
   vertices the default radius is 0.081 > 1/16, and at p = 4 a radius of
   1.5 connects every pair. *)
let brute_rgg ~p ~n_per_rank ~radius ~seed =
  let n = p * n_per_rank in
  let x = Array.init n (fun id -> Xoshiro.hash_float ~seed ~stream:11 ~counter:id) in
  let y =
    Array.init n (fun id ->
        let r = id / n_per_rank in
        let lo = float_of_int r /. float_of_int p
        and hi = float_of_int (r + 1) /. float_of_int p in
        lo +. (Xoshiro.hash_float ~seed ~stream:12 ~counter:id *. (hi -. lo)))
  in
  let near u v =
    let dx = x.(u) -. x.(v) and dy = y.(u) -. y.(v) in
    u <> v && (dx *. dx) +. (dy *. dy) <= radius *. radius
  in
  List.init n (fun u -> (u, List.filter (near u) (List.init n Fun.id)))

let test_rgg_brute_force () =
  let seed = 1 and n_per_rank = 48 in
  List.iter
    (fun (p, radius) ->
      let expected =
        brute_rgg ~p ~n_per_rank ~seed
          ~radius:
            (match radius with
            | Some r -> r
            | None ->
                Rgg2d.radius_for_degree ~n:(p * n_per_rank) ~degree:Rgg2d.default_degree)
      in
      let adj, _, _ =
        gather_graph ~p (fun comm -> Rgg2d.generate comm ~n_per_rank ?radius ~seed ())
      in
      let edges a = List.fold_left (fun acc (_, ns) -> acc + List.length ns) 0 a / 2 in
      let label = Printf.sprintf "p=%d" p in
      Alcotest.(check int) (label ^ ": edge count") (edges expected) (edges adj);
      Alcotest.(check (list (pair int (list int)))) (label ^ ": adjacency") expected adj)
    [ (16, None); (4, Some 1.5) ];
  let complete, _, _ =
    gather_graph ~p:4 (fun comm -> Rgg2d.generate comm ~n_per_rank ~radius:1.5 ~seed ())
  in
  List.iter
    (fun (u, ns) ->
      Alcotest.(check int) (Printf.sprintf "1.5: vertex %d degree" u) ((4 * n_per_rank) - 1)
        (List.length ns))
    complete

(* Golden graphs.  One MD5 per rank over [n_global], [first_vertex],
   [xadj] and [adjncy], for every generator at several rank counts and
   seeds, the simulator benchmark's RGG (16 ranks of 2048 vertices) and
   the RGG radius extremes.  The fixture was written by the list-based
   generators that the flat-array ones replaced, so it pins the exact
   graph, not just its invariants; the [rgg2d p=16] lines were rewritten
   when the halo started reaching every strip within the radius (see
   [test_rgg_brute_force]). *)
let rank_digest (g : Distgraph.t) =
  let b = Buffer.create 4096 in
  let int x =
    Buffer.add_string b (string_of_int x);
    Buffer.add_char b ' '
  in
  int g.n_global;
  int g.first_vertex;
  Buffer.add_char b '|';
  Array.iter int g.xadj;
  Buffer.add_char b '|';
  Array.iter int g.adjncy;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_cases =
  let per_family name gen =
    List.concat_map
      (fun p ->
        List.map
          (fun seed -> (Printf.sprintf "%s p=%d seed=%d" name p seed, p, gen ~seed))
          [ 1; 17 ])
      [ 1; 3; 4; 16 ]
  in
  per_family "gnm" (fun ~seed comm ->
      Gnm.generate comm ~n_per_rank:48 ~m_per_rank:144 ~seed)
  @ per_family "rgg2d" (fun ~seed comm -> Rgg2d.generate comm ~n_per_rank:48 ~seed ())
  @ per_family "rhg" (fun ~seed comm -> Rhg.generate comm ~n_per_rank:48 ~seed ())
  @ List.map
      (fun seed ->
        ( Printf.sprintf "rgg2d simbench seed=%d" seed,
          16,
          fun comm -> Rgg2d.generate comm ~n_per_rank:2048 ~seed () ))
      [ 1; 2; 3 ]
  @ List.map
      (fun (label, p, radius) ->
        ( Printf.sprintf "rgg2d p=%d radius=%s" p label,
          p,
          fun comm -> Rgg2d.generate comm ~n_per_rank:12 ~radius ~seed:5 () ))
      [ ("1e-9", 4, 1e-9); ("1.5", 2, 1.5) ]

let golden_digests () =
  List.concat_map
    (fun (label, p, gen) ->
      let digests =
        Engine.run_values ~ranks:p (fun mpi ->
            rank_digest (gen (Kamping.Communicator.of_mpi mpi)))
      in
      Array.to_list
        (Array.mapi (fun r d -> Printf.sprintf "%s rank=%d %s\n" label r d) digests))
    golden_cases
  |> String.concat ""

let read_fixture name =
  let file = List.find Sys.file_exists [ "fixtures/" ^ name; "test/fixtures/" ^ name ] in
  In_channel.with_open_bin file In_channel.input_all

let test_golden_digests () =
  Alcotest.(check string) "per-rank CSR digests" (read_fixture "graph_digests.txt")
    (golden_digests ())

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
    Alcotest.test_case "golden digests" `Quick test_golden_digests;
    qtest prop_build_from_edges;
    Alcotest.test_case "edge usage errors" `Quick test_edge_errors;
    Alcotest.test_case "rgg radius extremes" `Quick test_radius_extremes;
    Alcotest.test_case "rgg = brute-force pair scan" `Quick test_rgg_brute_force;
  ]

let () = Alcotest.run "graphgen" [ ("graphgen", tests) ]
