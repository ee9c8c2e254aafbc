(* Figure 10: BFS weak scaling on three graph families, comparing the
   frontier-exchange strategies.

   Weak scaling: each rank holds [n_per_rank] vertices and ~[m_per_rank]
   edges (paper: 2^12 and 2^15; scaled down by default).  Reported time is
   the simulated makespan of the whole BFS (including any per-run
   topology/grid setup).

   Expected shape (paper Fig. 10):
   - kamping == mpi at every configuration (zero overhead);
   - grid the most scalable on RHG (and GNM, less pronounced);
   - sparse needed to be competitive on RGG (high diameter, high
     locality), close to the static neighbor collectives;
   - neighbor-with-rebuild does not scale. *)

open Mpisim

type family = Gnm | Rgg | Rhg

let family_name = function Gnm -> "GNM" | Rgg -> "RGG-2D" | Rhg -> "RHG"

let generate family comm ~n_per_rank ~m_per_rank ~seed =
  match family with
  | Gnm -> Graphgen.Gnm.generate comm ~n_per_rank ~m_per_rank ~seed
  | Rgg -> Graphgen.Rgg2d.generate comm ~n_per_rank ~seed ()
  | Rhg -> Graphgen.Rhg.generate comm ~n_per_rank ~seed ()

let results_file = "BENCH_FIG10.json"

(* Simulated time of the BFS proper (graph generation excluded): we take
   the makespan delta around the search.  Minimum of [reps] runs filters
   measured-compute noise.  Also returns the run's message and byte
   totals (generation included; it is the same for every exchanger). *)
let run_one ?(reps = 2) ?clock_mode ~ranks ~n_per_rank ~m_per_rank family exchanger :
    float * int * int =
  let once () =
    let t_bfs = ref 0. in
    let report =
      Engine.run ?clock_mode ~ranks (fun mpi ->
          let comm = Kamping.Communicator.of_mpi mpi in
          let g = generate family comm ~n_per_rank ~m_per_rank ~seed:99 in
          Coll.barrier mpi;
          let rt = Comm.runtime mpi in
          let start = Runtime.clock rt (Comm.world_rank mpi) in
          ignore (Bfs.Exchangers.bfs mpi g ~source:0 ~exchanger);
          Coll.barrier mpi;
          let stop = Runtime.clock rt (Comm.world_rank mpi) in
          if Comm.rank mpi = 0 then t_bfs := stop -. start)
    in
    let stats = report.Engine.stats in
    ( !t_bfs,
      Stats.count (Stats.counter stats "msg.sent"),
      int_of_float (Stats.sum (Stats.histogram stats "msg_size_bytes")) )
  in
  let first = once () in
  List.fold_left
    (fun ((t, _, _) as best) _ ->
      let (t', _, _) as r = once () in
      if t' < t then r else best)
    first
    (List.init (reps - 1) Fun.id)

(* [smoke]: p in {4, 8, 12, 16}, 64 vertices per rank, one rep, under
   [Virtual_only] so every number repeats exactly — the CI gate's
   configuration.  p = 8 and 12 give non-square grids, so the gate also
   pins the grid exchanger's orientation. *)
let run ?(smoke = false) ?(max_p = 64) ?(n_per_rank = 256) ?(m_per_rank = 1024) ?reps () =
  let n_per_rank, m_per_rank, reps, clock_mode =
    if smoke then (64, 256, Some 1, Runtime.Virtual_only)
    else (n_per_rank, m_per_rank, reps, Runtime.Measured)
  in
  Bench_util.section
    (Printf.sprintf
       "Figure 10: BFS weak scaling (%d vertices, ~%d edges per rank, simulated time)"
       n_per_rank m_per_rank);
  let ps =
    if smoke then [ 4; 8; 12; 16 ]
    else
      let rec go p acc = if p > max_p then List.rev acc else go (p * 4) (p :: acc) in
      go 4 []
  in
  List.iter
    (fun family ->
      Printf.printf "\n--- %s ---\n" (family_name family);
      let header = "p" :: List.map Bfs.Exchangers.exchanger_name Bfs.Exchangers.all in
      let rows =
        List.map
          (fun p ->
            string_of_int p
            :: List.map
                 (fun ex ->
                   let t, msgs, bytes =
                     run_one ?reps ~clock_mode ~ranks:p ~n_per_rank ~m_per_rank family ex
                   in
                   Bench_util.emit_json_file ~file:results_file ~bench:"fig10_bfs"
                     [
                       ("family", Bench_util.S (family_name family));
                       ("exchanger", Bench_util.S (Bfs.Exchangers.exchanger_name ex));
                       ("p", Bench_util.I p);
                       ("n_per_rank", Bench_util.I n_per_rank);
                       ("m_per_rank", Bench_util.I m_per_rank);
                       ("clock", Bench_util.S (if smoke then "virtual" else "measured"));
                       ("bfs_seconds", Bench_util.F t);
                       ("sent_msgs", Bench_util.I msgs);
                       ("sent_bytes", Bench_util.I bytes);
                     ];
                   Bench_util.time_str t)
                 Bfs.Exchangers.all)
          ps
      in
      Bench_util.print_table ~header rows)
    [ Gnm; Rgg; Rhg ]
