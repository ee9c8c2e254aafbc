(* Application-level integration tests: BFS against sequential BFS,
   suffix arrays against the naive reference, sample sort variants against
   Array.sort, across binding styles and exchangers. *)

open Mpisim

(* ------------------------------------------------------------------ *)
(* Sample sort: all five binding styles produce the same global order. *)

let gather_sorted ~p sorter =
  let results =
    Engine.run_values ~ranks:p (fun comm ->
        let rng = Xoshiro.create ~seed:7 ~stream:(Comm.rank comm) in
        let data = Array.init 300 (fun _ -> Xoshiro.next_int rng ~bound:10000) in
        (data, sorter comm data))
  in
  let input = Array.concat (Array.to_list (Array.map fst results)) in
  let output = Array.concat (Array.to_list (Array.map snd results)) in
  (input, output)

let check_sorter name sorter () =
  let p = 5 in
  let input, output = gather_sorted ~p sorter in
  let expected = Array.copy input in
  Array.sort compare expected;
  Alcotest.(check (array int)) (name ^ " sorts correctly") expected output

let sorter_tests =
  [
    Alcotest.test_case "sample sort mpi" `Quick (check_sorter "mpi" Sample_sort.Ss_mpi.sort);
    Alcotest.test_case "sample sort boost" `Quick
      (check_sorter "boost" Sample_sort.Ss_boost.sort);
    Alcotest.test_case "sample sort mpl" `Quick (check_sorter "mpl" Sample_sort.Ss_mpl.sort);
    Alcotest.test_case "sample sort rwth" `Quick
      (check_sorter "rwth" Sample_sort.Ss_rwth.sort);
    Alcotest.test_case "sample sort kamping" `Quick
      (check_sorter "kamping" Sample_sort.Ss_kamping.sort);
  ]

(* ------------------------------------------------------------------ *)
(* Vector allgather: all five variants agree. *)

let check_va name run () =
  let p = 4 in
  let results =
    Engine.run_values ~ranks:p (fun comm ->
        let r = Comm.rank comm in
        run comm (Array.init (r + 2) (fun i -> (r * 10) + i)))
  in
  let expected =
    Array.concat (List.init p (fun r -> Array.init (r + 2) (fun i -> (r * 10) + i)))
  in
  Array.iter (fun res -> Alcotest.(check (array int)) name expected res) results

let va_tests =
  [
    Alcotest.test_case "vector allgather mpi" `Quick
      (check_va "va mpi" Vector_allgather.Va_mpi.run);
    Alcotest.test_case "vector allgather boost" `Quick
      (check_va "va boost" Vector_allgather.Va_boost.run);
    Alcotest.test_case "vector allgather rwth" `Quick
      (check_va "va rwth" Vector_allgather.Va_rwth.run);
    Alcotest.test_case "vector allgather mpl" `Quick
      (check_va "va mpl" Vector_allgather.Va_mpl.run);
    Alcotest.test_case "vector allgather kamping" `Quick
      (check_va "va kamping" Vector_allgather.Va_kamping.run);
  ]

(* ------------------------------------------------------------------ *)
(* BFS: compare against a sequential BFS on the gathered graph. *)

let sequential_bfs ~n (edges : (int * int) list) ~source : int array =
  let adj = Array.make n [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    edges;
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(source) <- 0;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      adj.(u)
  done;
  dist

(* Extract the edge list of a distributed graph (local endpoints only). *)
let local_edges g =
  let acc = ref [] in
  for l = 0 to Graphgen.Distgraph.n_local g - 1 do
    let u = Graphgen.Distgraph.global_of_local g l in
    Graphgen.Distgraph.iter_neighbors g l (fun v -> if u < v then acc := (u, v) :: !acc)
  done;
  !acc

let run_bfs_check ~p ~gen name bfs () =
  let results =
    Engine.run_values ~ranks:p (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let g = gen comm in
        let dist = bfs mpi g ~source:0 in
        (local_edges g, dist, Graphgen.Distgraph.n_global g))
  in
  let edges = List.concat_map (fun (e, _, _) -> e) (Array.to_list results) in
  let _, _, n = results.(0) in
  let expected = sequential_bfs ~n edges ~source:0 in
  let got = Array.concat (List.map (fun (_, d, _) -> d) (Array.to_list results)) in
  let got = Array.sub got 0 n in
  Alcotest.(check (array int)) (name ^ " distances") expected got

let gnm_gen comm = Graphgen.Gnm.generate comm ~n_per_rank:64 ~m_per_rank:192 ~seed:3

let rgg_gen comm = Graphgen.Rgg2d.generate comm ~n_per_rank:64 ~seed:5 ()

let rhg_gen comm = Graphgen.Rhg.generate comm ~n_per_rank:64 ~seed:7 ()

let bfs_families = [ ("gnm", gnm_gen); ("rgg", rgg_gen); ("rhg", rhg_gen) ]

(* One case per graph family and rank count; p = 4 keeps the plain
   "(family)" name. *)
let bfs_cases name bfs =
  List.concat_map
    (fun p ->
      List.map
        (fun (gname, gen) ->
          let where = if p = 4 then gname else Printf.sprintf "%s, p=%d" gname p in
          Alcotest.test_case
            (Printf.sprintf "%s (%s)" name where)
            `Quick (run_bfs_check ~p ~gen name bfs))
        bfs_families)
    [ 4; 5 ]

let bfs_binding_tests =
  List.concat_map
    (fun (name, bfs) -> bfs_cases name bfs)
    [
      ("bfs mpi", Bfs.Bfs_mpi.bfs);
      ("bfs kamping", Bfs.Bfs_kamping.bfs);
      ("bfs boost", Bfs.Bfs_boost.bfs);
      ("bfs rwth", Bfs.Bfs_rwth.bfs);
      ("bfs mpl", Bfs.Bfs_mpl.bfs);
    ]

let bfs_exchanger_tests =
  List.concat_map
    (fun ex ->
      bfs_cases
        (Printf.sprintf "bfs %s" (Bfs.Exchangers.exchanger_name ex))
        (fun mpi g ~source -> Bfs.Exchangers.bfs mpi g ~source ~exchanger:ex))
    Bfs.Exchangers.all

(* The frontier kernel as it was written before it ran on the CSR arrays
   in place: per-edge [Distgraph] calls and a [Hashtbl.replace] per remote
   neighbor.  The reference for [Bfs.Common.expand_frontier]. *)
let reference_expand_frontier g (dist : int array) frontier ~level =
  let open Graphgen in
  let next_local = ref [] in
  let buckets : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun l ->
      Distgraph.iter_neighbors g l (fun u ->
          if Distgraph.is_local g u then begin
            let lu = Distgraph.local_of_global g u in
            if dist.(lu) = Bfs.Common.undef then begin
              dist.(lu) <- level + 1;
              next_local := lu :: !next_local
            end
          end
          else begin
            let owner = Distgraph.owner g u in
            Hashtbl.replace buckets owner
              (u :: (try Hashtbl.find buckets owner with Not_found -> []))
          end))
    frontier;
  (next_local, buckets)

(* Same next frontier (order included), same [dist] and the same
   [Hashtbl.fold] sequence — the exchangers' send order — on random
   frontiers over random graphs of every family. *)
let prop_expand_matches_reference =
  QCheck.Test.make ~name:"expand_frontier = per-edge Hashtbl reference" ~count:40
    QCheck.(quad (int_bound 2) (int_bound 4) (int_bound 88) (int_bound 1_000_000))
    (fun (family, pi, n, seed) ->
      let p = [| 1; 3; 4; 5; 8 |].(pi) and n_per_rank = 8 + n in
      let gen comm =
        match family with
        | 0 -> Graphgen.Gnm.generate comm ~n_per_rank ~m_per_rank:(3 * n_per_rank) ~seed
        | 1 -> Graphgen.Rgg2d.generate comm ~n_per_rank ~seed ()
        | _ -> Graphgen.Rhg.generate comm ~n_per_rank ~seed ()
      in
      let agree =
        Engine.run_values ~ranks:p (fun mpi ->
            let g = gen (Kamping.Communicator.of_mpi mpi) in
            let n = Graphgen.Distgraph.n_local g in
            let rng = Xoshiro.create ~seed ~stream:(Comm.rank mpi) in
            let pick bound = Xoshiro.next_int rng ~bound in
            let dist =
              Array.init (max 1 n) (fun _ ->
                  if pick 3 = 0 then pick 8 else Bfs.Common.undef)
            in
            let frontier = if n = 0 then [] else List.init (pick (n + 1)) (fun _ -> pick n) in
            let level = pick 10 in
            let fold b = Hashtbl.fold (fun owner vs acc -> (owner, vs) :: acc) b [] in
            let d_new = Array.copy dist and d_ref = Array.copy dist in
            let next_new, b_new = Bfs.Common.expand_frontier g d_new frontier ~level in
            let next_ref, b_ref = reference_expand_frontier g d_ref frontier ~level in
            !next_new = !next_ref && d_new = d_ref && fold b_new = fold b_ref)
      in
      Array.for_all Fun.id agree)

let bfs_kernel_tests = [ QCheck_alcotest.to_alcotest prop_expand_matches_reference ]

(* ------------------------------------------------------------------ *)
(* Suffix array: both variants against the sequential reference. *)

let check_suffix name builder ~textgen () =
  let p = 4 in
  let results =
    Engine.run_values ~ranks:p (fun mpi ->
        let text = textgen ~p ~rank:(Comm.rank mpi) in
        (text, builder mpi text))
  in
  let text =
    String.concat ""
      (List.map
         (fun (t, _) -> String.init (Array.length t) (Array.get t))
         (Array.to_list results))
  in
  let expected = Suffix_array.Sa_common.sequential_suffix_array text in
  let got = Array.concat (List.map snd (Array.to_list results)) in
  Alcotest.(check (array int)) (name ^ " suffix array") expected got

let random_text ~p ~rank = Suffix_array.Sa_common.random_text ~seed:11 ~alphabet:4 ~n:256 ~p ~rank

let periodic_text ~p ~rank = Suffix_array.Sa_common.periodic_text ~period:3 ~n:120 ~p ~rank

(* Texts sized beyond the DC3 base-case threshold to force distributed
   recursion. *)
let big_random_text ~p ~rank =
  Suffix_array.Sa_common.random_text ~seed:31 ~alphabet:3 ~n:700 ~p ~rank

let big_periodic_text ~p ~rank = Suffix_array.Sa_common.periodic_text ~period:4 ~n:640 ~p ~rank

let suffix_tests =
  [
    Alcotest.test_case "suffix kamping (random)" `Quick
      (check_suffix "kamping" Suffix_array.Sa_kamping.suffix_array ~textgen:random_text);
    Alcotest.test_case "suffix mpi (random)" `Quick
      (check_suffix "mpi" Suffix_array.Sa_mpi.suffix_array ~textgen:random_text);
    Alcotest.test_case "suffix kamping (periodic)" `Quick
      (check_suffix "kamping" Suffix_array.Sa_kamping.suffix_array ~textgen:periodic_text);
    Alcotest.test_case "suffix mpi (periodic)" `Quick
      (check_suffix "mpi" Suffix_array.Sa_mpi.suffix_array ~textgen:periodic_text);
    Alcotest.test_case "suffix dcx (random, small)" `Quick
      (check_suffix "dcx" Suffix_array.Sa_dcx.suffix_array ~textgen:random_text);
    Alcotest.test_case "suffix dcx (periodic, small)" `Quick
      (check_suffix "dcx" Suffix_array.Sa_dcx.suffix_array ~textgen:periodic_text);
    Alcotest.test_case "suffix dcx (random, recursive)" `Quick
      (check_suffix "dcx" Suffix_array.Sa_dcx.suffix_array ~textgen:big_random_text);
    Alcotest.test_case "suffix dcx (periodic, recursive)" `Quick
      (check_suffix "dcx" Suffix_array.Sa_dcx.suffix_array ~textgen:big_periodic_text);
    Alcotest.test_case "suffix dcx (prefix-doubling agreement)" `Quick (fun () ->
        let p = 5 in
        let run builder =
          let results =
            Mpisim.Engine.run_values ~ranks:p (fun mpi ->
                let text =
                  Suffix_array.Sa_common.random_text ~seed:77 ~alphabet:2 ~n:500 ~p
                    ~rank:(Mpisim.Comm.rank mpi)
                in
                builder mpi text)
          in
          Array.concat (Array.to_list results)
        in
        Alcotest.(check (array int))
          "dcx = prefix doubling"
          (run Suffix_array.Sa_kamping.suffix_array)
          (run Suffix_array.Sa_dcx.suffix_array));
  ]


(* ------------------------------------------------------------------ *)
(* Label propagation: the three layer variants agree exactly. *)

let run_lp variant () =
  let p = 4 in
  let results =
    Engine.run_values ~ranks:p (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let g = Graphgen.Rgg2d.generate comm ~n_per_rank:64 ~seed:13 () in
        variant mpi g ~max_cluster_size:16 ~rounds:4)
  in
  Array.concat (Array.to_list results)

let test_lp_variants_agree () =
  let a = run_lp Label_propagation.Lp_mpi.run () in
  let b = run_lp Label_propagation.Lp_kamping.run () in
  let c = run_lp Label_propagation.Lp_specialized.run () in
  Alcotest.(check (array int)) "mpi = kamping" a b;
  Alcotest.(check (array int)) "kamping = specialized" b c

let test_lp_coarsens () =
  let labels = run_lp Label_propagation.Lp_kamping.run () in
  let distinct = Hashtbl.create 64 in
  Array.iter (fun l -> Hashtbl.replace distinct l ()) labels;
  Alcotest.(check bool) "fewer clusters than vertices" true
    (Hashtbl.length distinct < Array.length labels)

let lp_tests =
  [
    Alcotest.test_case "lp variants agree" `Quick test_lp_variants_agree;
    Alcotest.test_case "lp coarsens" `Quick test_lp_coarsens;
  ]

(* ------------------------------------------------------------------ *)
(* Phylo: both layers produce the identical score trajectory. *)

let run_phylo layer =
  let results =
    Engine.run_values ~ranks:6 (fun comm ->
        Phylo.Workload.run layer comm ~sites_per_rank:200 ~iterations:20 ~n_branches:32
          ~n_partitions:4)
  in
  results.(0)

let test_phylo_layers_agree () =
  let a = run_phylo Phylo.Workload.handrolled in
  let b = run_phylo Phylo.Workload.kamping in
  Alcotest.(check bool) "identical final score" true
    (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let test_phylo_score_finite () =
  let a = run_phylo Phylo.Workload.kamping in
  Alcotest.(check bool) "finite" true (Float.is_finite a)

let phylo_tests =
  [
    Alcotest.test_case "phylo layers agree" `Quick test_phylo_layers_agree;
    Alcotest.test_case "phylo score finite" `Quick test_phylo_score_finite;
  ]

let () =
  Alcotest.run "apps"
    [
      ("sample_sort", sorter_tests);
      ("vector_allgather", va_tests);
      ("bfs_bindings", bfs_binding_tests);
      ("bfs_exchangers", bfs_exchanger_tests);
      ("bfs_kernel", bfs_kernel_tests);
      ("suffix_array", suffix_tests);
      ("label_propagation", lp_tests);
      ("phylo", phylo_tests);
    ]
