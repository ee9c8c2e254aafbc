(* Ablation studies for the design choices called out in DESIGN.md §4:

   1. allgather algorithm: Bruck (O(log p) rounds, default) vs ring
      (p-1 rounds): the same bytes, so Bruck wins at every size here;
   2. grid dimensionality k for the indirect all-to-all: k=1 (direct)
      vs k=2 vs k=3 — startups fall as k*p^(1/k) while forwarded volume
      grows k-fold;
   3. empty-pair skipping in alltoallv: the difference between our
      alltoallv (skips) and alltoallw (cannot skip) on a sparse pattern.

   All numbers are simulated time with the omnipath model under
   [Virtual_only], so they repeat exactly: every cell is also written as
   one row (study, p, variant, sim_seconds) of BENCH_ABLATION.json, which
   CI gates against bench/history/. *)

open Mpisim

let results_file = "BENCH_ABLATION.json"

let sweep ~from ~max_p =
  let rec go p acc = if p > max_p then List.rev acc else go (p * 4) (p :: acc) in
  go from []

(* One table per study: a row per p, a column per [(variant, run)]; each
   cell's simulated time is recorded as it is printed. *)
let study_table ~study ~ps variants =
  Bench_util.print_table ~header:("p" :: List.map fst variants)
    (List.map
       (fun p ->
         string_of_int p
         :: List.map
              (fun (variant, run) ->
                let t = run p in
                Bench_util.emit_json_file ~file:results_file ~bench:"ablation"
                  [
                    ("study", Bench_util.S study);
                    ("p", Bench_util.I p);
                    ("variant", Bench_util.S variant);
                    ("sim_seconds", Bench_util.F t);
                  ];
                Bench_util.time_str t)
              variants)
       ps)

let allgather_ablation ~max_p () =
  Printf.printf "\n-- allgather algorithm: Bruck (default) vs ring --\n";
  (* Memory bound: the result array is p * count elements on every rank. *)
  let max_p = min max_p 64 in
  let run ~ranks ~count which =
    let algo = match which with `Bruck -> Coll_algo.Bruck | `Ring -> Coll_algo.Ring in
    let model = Coll_algo.pin [ (Coll_algo.Allgather, Some algo) ] Net_model.omnipath in
    let report =
      Engine.run ~model ~clock_mode:Runtime.Virtual_only ~ranks (fun comm ->
          ignore (Coll.allgather comm Datatype.int (Array.make count (Comm.rank comm))))
    in
    report.Engine.max_time
  in
  study_table ~study:"allgather" ~ps:(sweep ~from:4 ~max_p)
    [
      ("bruck (8 ints)", fun p -> run ~ranks:p ~count:8 `Bruck);
      ("ring (8 ints)", fun p -> run ~ranks:p ~count:8 `Ring);
      ("bruck (8k ints)", fun p -> run ~ranks:p ~count:8192 `Bruck);
      ("ring (8k ints)", fun p -> run ~ranks:p ~count:8192 `Ring);
    ];
  Printf.printf
    "(Both algorithms move the same (p-1) blocks per rank, so Bruck's O(log p)\n\
     \ rounds win at every size and the gap narrows as bandwidth takes over.\n\
     \ The alpha-beta model has no link contention and no pipelining, which\n\
     \ is what makes rings win at large sizes on real networks, so the cost\n\
     \ model never selects ring for a non-empty block; ring stays for\n\
     \ allgatherv and bcast's second phase.)\n"

let grid_k_ablation ~max_p () =
  Printf.printf "\n-- grid dimensionality for indirect all-to-all --\n";
  let run ~ranks ~k =
    let report =
      Engine.run ~clock_mode:Runtime.Virtual_only ~ranks (fun mpi ->
          let comm = Kamping.Communicator.of_mpi mpi in
          let p = Comm.size mpi in
          let send_counts = Array.make p 2 in
          let data = Array.init (2 * p) (fun i -> i) in
          if k = 1 then
            ignore (Kamping.Collectives.alltoallv comm Datatype.int ~send_counts data)
          else begin
            let grid = Kamping_plugins.Grid_kd.create ~k comm in
            ignore (Kamping_plugins.Grid_kd.alltoallv grid Datatype.int ~send_counts data)
          end)
    in
    report.Engine.max_time
  in
  study_table ~study:"grid_k" ~ps:(sweep ~from:16 ~max_p)
    [
      ("direct (k=1)", fun p -> run ~ranks:p ~k:1);
      ("grid k=2", fun p -> run ~ranks:p ~k:2);
      ("grid k=3", fun p -> run ~ranks:p ~k:3);
    ]

let skip_ablation ~max_p () =
  Printf.printf "\n-- empty-pair skipping: alltoallv (skips) vs alltoallw (cannot) --\n";
  let run ~ranks which =
    let report =
      Engine.run ~clock_mode:Runtime.Virtual_only ~ranks (fun comm ->
          let p = Comm.size comm in
          let r = Comm.rank comm in
          (* Sparse pattern: talk to 4 neighbors only. *)
          let send_counts = Array.make p 0 in
          for d = 1 to 4 do
            send_counts.((r + d) mod p) <- 8
          done;
          let data = Array.make 32 r in
          let recv_counts = Coll.alltoall comm Datatype.int send_counts in
          match which with
          | `V ->
              let send_displs = Coll.exclusive_prefix_sum send_counts in
              let recv_displs = Coll.exclusive_prefix_sum recv_counts in
              ignore
                (Coll.alltoallv comm Datatype.int ~send_counts ~send_displs ~recv_counts
                   ~recv_displs data)
          | `W -> ignore (Coll.alltoallw comm Datatype.int ~send_counts ~recv_counts data))
    in
    report.Engine.max_time
  in
  study_table ~study:"empty_pair_skip" ~ps:(sweep ~from:16 ~max_p)
    [ ("alltoallv", fun p -> run ~ranks:p `V); ("alltoallw", fun p -> run ~ranks:p `W) ]

let run ?(max_p = 256) () =
  Bench_util.section "Ablations: design choices (DESIGN.md section 4)";
  allgather_ablation ~max_p ();
  grid_k_ablation ~max_p ();
  skip_ablation ~max_p ()
