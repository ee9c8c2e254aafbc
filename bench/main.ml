(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index).

     dune exec bench/main.exe                 -- all experiments, scaled-down defaults
     dune exec bench/main.exe -- table1 fig8  -- a subset
     dune exec bench/main.exe -- --full       -- full-size runs (slow)
     dune exec bench/main.exe -- --smoke ...  -- minimal sizes (CI sanity runs)

   Experiments: table1, fig8, fig10, overhead, types, repro_reduce,
   sparse, suffix, label_prop, raxml, ulfm, ablation, pingpong, chaos,
   coll, taskqueue, multicore. *)

let experiments ~full ~smoke =
  [
    ("table1", fun () -> Bench_table1.run ());
    ( "fig8",
      fun () ->
        if full then Bench_fig8.run ~max_p:128 ~per_rank:50_000 ~reps:2 ()
        else Bench_fig8.run () );
    ( "fig10",
      fun () ->
        if full then Bench_fig10.run ~max_p:256 ~n_per_rank:512 ~m_per_rank:2048 ~reps:1 ()
        else Bench_fig10.run ~smoke () );
    ("overhead", fun () -> Bench_overhead.run ~smoke ());
    ("types", fun () -> Bench_types.run ~smoke ());
    ( "repro_reduce",
      fun () -> if full then Bench_repro.run ~max_p:128 () else Bench_repro.run () );
    ( "sparse",
      fun () -> if full then Bench_sparse.run ~max_p:1024 () else Bench_sparse.run () );
    ( "suffix",
      fun () ->
        if full then Bench_suffix.run ~ranks:16 ~n:65_536 () else Bench_suffix.run () );
    ("label_prop", fun () -> Bench_lp.run ());
    ("raxml", fun () -> Bench_raxml.run ~smoke ());
    ( "ulfm",
      fun () -> if full then Bench_ulfm.run ~max_p:256 () else Bench_ulfm.run ~smoke () );
    ( "ablation",
      fun () -> if full then Bench_ablation.run ~max_p:1024 () else Bench_ablation.run () );
    ("pingpong", fun () -> Bench_pingpong.run ~smoke ());
    ("chaos", fun () -> Bench_chaos.run ~smoke ());
    ("coll", fun () -> Bench_coll.run ~smoke ());
    ("taskqueue", fun () -> Bench_taskqueue.run ~smoke ());
    ("multicore", fun () -> Bench_multicore.run ~smoke ());
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let selected = List.filter (fun a -> a <> "--full" && a <> "--smoke") args in
  let table = experiments ~full ~smoke in
  let to_run =
    if selected = [] then table
    else
      List.map
        (fun name ->
          match List.assoc_opt name table with
          | Some f -> (name, f)
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s\n" name
                (String.concat ", " (List.map fst table));
              exit 1)
        selected
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) to_run;
  Printf.printf "\ntotal benchmark wall time: %.1fs\n" (Unix.gettimeofday () -. t0);
  (* Every selected experiment has run; only now does a failed gate fail
     the process. *)
  match !Bench_util.failed_gates with
  | [] -> ()
  | failed ->
      Printf.printf "\n%d gate(s) FAILED:\n" (List.length failed);
      List.iter (Printf.printf "  %s\n") failed;
      exit 1
