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

(* A random graph of [family] (GNM with 0 to 3 edges per vertex, so
   some rows are empty, RGG or RHG) on this rank's communicator. *)
let kernel_graph mpi ~family ~n_per_rank ~seed =
  let comm = Kamping.Communicator.of_mpi mpi in
  match family with
  | 0 ->
      Graphgen.Gnm.generate comm ~n_per_rank ~m_per_rank:(seed mod 4 * n_per_rank) ~seed
  | 1 -> Graphgen.Rgg2d.generate comm ~n_per_rank ~seed ()
  | _ -> Graphgen.Rhg.generate comm ~n_per_rank ~seed ()

let kernel_case =
  QCheck.(quad (int_bound 2) (int_bound 4) (int_bound 88) (int_bound 1_000_000))

let kernel_ranks = [| 1; 2; 3; 5; 8 |]

(* The bucket lists as blocks in insertion order. *)
let block_of_list vs = Array.of_list (List.rev vs)

(* The flat kernel ([Common.of_list] + [expand]) and its list wrapper
   against the reference on random frontiers (empty ones included) over
   random graphs of every family: the same [dist], the same next-frontier
   visiting order, the same per-owner blocks element for element, the
   same dense layout as [Kamping.Flatten.flatten] and the same
   [outgoing] (dest, block) sequence as [Hashtbl.fold] over the
   reference's buckets — the exchangers' send order. *)
let prop_expand_matches_reference =
  QCheck.Test.make ~name:"expand_frontier = per-edge Hashtbl reference" ~count:60
    kernel_case
    (fun (family, pi, n, seed) ->
      let p = kernel_ranks.(pi) and n_per_rank = 8 + n in
      let agree =
        Engine.run_values ~ranks:p (fun mpi ->
            let g = kernel_graph mpi ~family ~n_per_rank ~seed in
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
            let d_flat = Array.copy dist in
            let next_new, b_new = Bfs.Common.expand_frontier g d_new frontier ~level in
            let next_ref, b_ref = reference_expand_frontier g d_ref frontier ~level in
            let st = Bfs.Common.of_list g d_flat frontier in
            Bfs.Common.expand st ~level;
            let blocks_agree =
              List.for_all
                (fun owner ->
                  Bfs.Common.block st owner
                  = block_of_list (Option.value (Hashtbl.find_opt b_ref owner) ~default:[]))
                (List.init p Fun.id)
            in
            let outgoing_ref =
              Hashtbl.fold (fun dest vs acc -> (dest, block_of_list vs) :: acc) b_ref []
            in
            !next_new = !next_ref && d_new = d_ref && fold b_new = fold b_ref
            && d_flat = d_ref
            && Bfs.Common.rev_list st.next = !next_ref
            && blocks_agree
            && Bfs.Common.flatten st = Kamping.Flatten.flatten ~size:p b_ref
            && Bfs.Common.outgoing st = outgoing_ref)
      in
      Array.for_all Fun.id agree)

(* [outgoing]'s order is computed, not read off a table, so check it
   where the table would grow: up to 100 distinct owners, past the
   32-entry doubling point of a 16-bucket table. *)
let prop_outgoing_order_matches_hashtbl =
  QCheck.Test.make ~name:"outgoing order = Hashtbl.fold order" ~count:200
    QCheck.(pair (int_bound 100) (int_bound 1_000_000))
    (fun (k, seed) ->
      let rng = Xoshiro.create ~seed ~stream:0 in
      let owners = Array.init 200 Fun.id in
      for i = 199 downto 1 do
        let j = Xoshiro.next_int rng ~bound:(i + 1) in
        let x = owners.(i) in
        owners.(i) <- owners.(j);
        owners.(j) <- x
      done;
      let owners = Array.sub owners 0 k in
      let table = Hashtbl.create 16 in
      Array.iter (fun o -> Hashtbl.add table o ()) owners;
      let expected = Hashtbl.fold (fun o () acc -> o :: acc) table [] in
      let buf = Bfs.Common.buf () in
      Array.iter (Bfs.Common.push buf) owners;
      Bfs.Common.hashtbl_order buf;
      List.rev (Array.to_list (Array.sub buf.a 0 buf.n)) = expected)

(* A frontier row holding an out-of-range neighbour raises the same
   [Usage_error] in the flat kernel as in the reference. *)
let test_out_of_range_neighbour () =
  let outcome f = try ignore (f ()); "no error" with Errdefs.Usage_error m -> m in
  let msgs =
    Engine.run_values ~ranks:2 (fun mpi ->
        let g = kernel_graph mpi ~family:1 ~n_per_rank:32 ~seed:5 in
        let n = Graphgen.Distgraph.n_local g in
        let l =
          List.find (fun l -> Graphgen.Distgraph.degree g l > 0) (List.init n Fun.id)
        in
        let bad = Graphgen.Distgraph.n_global g + 3 in
        g.adjncy.(g.xadj.(l + 1) - 1) <- bad;
        let dist () = Array.make n Bfs.Common.undef in
        ( outcome (fun () -> Bfs.Common.expand_frontier g (dist ()) [ l ] ~level:0),
          outcome (fun () -> reference_expand_frontier g (dist ()) [ l ] ~level:0) ))
  in
  Array.iter
    (fun (flat, reference) ->
      Alcotest.(check string) "same usage error" reference flat;
      Alcotest.(check bool) "an error" true (flat <> "no error"))
    msgs

(* Every exchanger computes the distances of the dense alltoallv one
   from a random source, on the kernel property's graphs. *)
let prop_exchangers_match_dense =
  QCheck.Test.make ~name:"every exchanger equals Dense_mpi" ~count:25 kernel_case
    (fun (family, pi, n, seed) ->
      let p = kernel_ranks.(pi) and n_per_rank = 8 + n in
      let run exchanger =
        Engine.run_values ~ranks:p (fun mpi ->
            let g = kernel_graph mpi ~family ~n_per_rank ~seed in
            let source = seed mod Graphgen.Distgraph.n_global g in
            Bfs.Exchangers.bfs mpi g ~source ~exchanger)
      in
      let dense = run Bfs.Exchangers.Dense_mpi in
      List.for_all (fun ex -> run ex = dense) Bfs.Exchangers.all)

(* One BFS level, repeated on a warmed state: [expand] and [relax]
   allocate nothing once the buffers have grown, remote neighbours or
   not; [outgoing] allocates each block (its length plus a header word)
   and one pair and one list cell (3 words each) per owner. *)
let test_kernel_allocation () =
  let measured =
    Engine.run_values ~ranks:3 (fun mpi ->
        let rank = Comm.rank mpi in
        let comm = Kamping.Communicator.of_mpi mpi in
        let g = Graphgen.Rgg2d.generate comm ~n_per_rank:256 ~seed:9 () in
        let n = Graphgen.Distgraph.n_local g in
        let frontier = List.init (n / 2) (fun i -> 2 * i) in
        let dist = Array.make n Bfs.Common.undef in
        let st = Bfs.Common.of_list g (Array.copy dist) frontier in
        let received = Array.init 16 (fun i -> g.first_vertex + (i * 7 mod n)) in
        let level () =
          Array.blit dist 0 st.dist 0 n;
          st.next.n <- 0;
          Array.iter (fun (b : Bfs.Common.buf) -> b.n <- 0) st.out;
          st.owners.n <- 0;
          let expand = Alloc.minor_words (fun () -> Bfs.Common.expand st ~level:0) in
          let relax = Alloc.minor_words (fun () -> Bfs.Common.relax st received ~level:0) in
          let expected =
            List.init (Array.length st.out) (fun o -> Bfs.Common.count st o)
            |> List.filter (fun c -> c > 0)
            |> List.fold_left (fun acc c -> acc + c + 1 + 3 + 3) 0
          in
          let outgoing = Alloc.minor_words (fun () -> ignore (Bfs.Common.outgoing st)) in
          (expand, relax, outgoing, float_of_int expected, st.owners.n)
        in
        ignore (level ());
        (rank, level ()))
  in
  Array.iter
    (fun (rank, (expand, relax, outgoing, expected, owners)) ->
      let where = Printf.sprintf "rank %d" rank in
      Alcotest.(check (float 0.)) (where ^ ": expand allocates nothing") 0. expand;
      Alcotest.(check (float 0.)) (where ^ ": relax allocates nothing") 0. relax;
      Alcotest.(check bool) (where ^ ": has remote neighbours") true (owners > 0);
      Alcotest.(check (float 0.))
        (where ^ ": outgoing allocates its blocks")
        expected outgoing)
    measured;
  (* One rank: every neighbour is local, so a level sends nothing. *)
  let single =
    Engine.run_values ~ranks:1 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let g = Graphgen.Rgg2d.generate comm ~n_per_rank:256 ~seed:9 () in
        let n = Graphgen.Distgraph.n_local g in
        let dist = Array.make n Bfs.Common.undef in
        let st = Bfs.Common.of_list g (Array.copy dist) (List.init n Fun.id) in
        let level () =
          Array.blit dist 0 st.dist 0 n;
          st.next.n <- 0;
          Alloc.minor_words (fun () ->
              Bfs.Common.expand st ~level:0;
              ignore (Bfs.Common.outgoing st))
        in
        ignore (level ());
        level ())
  in
  Alcotest.(check (float 0.)) "no remote neighbour: a level allocates nothing" 0. single.(0)

let bfs_kernel_tests =
  [
    QCheck_alcotest.to_alcotest prop_expand_matches_reference;
    QCheck_alcotest.to_alcotest prop_outgoing_order_matches_hashtbl;
    QCheck_alcotest.to_alcotest prop_exchangers_match_dense;
    Alcotest.test_case "out-of-range neighbour" `Quick test_out_of_range_neighbour;
    Alcotest.test_case "warmed kernel allocation" `Quick test_kernel_allocation;
  ]

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
