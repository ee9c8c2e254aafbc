(* Run-level pool: [Engine.run_many] must give, run for run, exactly what
   [List.map] over the same runs gives (fixed and randomized ring
   programs, the taskqueue's exactly-once postcondition, the golden chaos
   replay), keep input order, and re-raise the lowest-index failure only
   after every domain has finished.  [Engine.run ?domains] accepts 1 and
   nothing else. *)

open Mpisim
module C = Kamping.Communicator
module TQ = Kamping_plugins.Taskqueue

(* Both sides of every comparison: the pool and plain sequential
   evaluation of the same thunks. *)
let sequential thunks = List.map (fun f -> f ()) thunks

(* ------------------------------------------------------------------ *)
(* Determinism: a seeded Virtual_only program gives identical results,
   virtual clocks and per-op profile whether it runs alone or next to
   other runs on other domains. *)

let ring_program ~rounds comm =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let rt = Comm.runtime comm in
  let acc = ref 0 in
  for round = 1 to rounds do
    (* Rank-skewed virtual compute, so fibers do not stay in lockstep. *)
    Runtime.charge_compute rt (Comm.world_rank comm)
      (1e-6 *. float_of_int (1 + ((r + round) mod 5)));
    let v = [| (r * 1000) + round |] in
    P2p.send comm Datatype.int ~dest:((r + 1) mod n) v;
    let d, _ = P2p.recv comm Datatype.int ~source:((r + n - 1) mod n) () in
    acc := !acc + d.(0)
  done;
  let s = Coll.allreduce comm Datatype.int Reduce_op.int_sum [| !acc |] in
  ((Comm.rank comm * 1_000_000) + !acc, s.(0))

let run_ring ~ranks ~rounds () =
  Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only ~ranks
    (ring_program ~rounds)

(* Every rank's value, the virtual clocks, the sorted per-op call/byte
   profile and the message counter of one run. *)
let fingerprint (results, report) =
  let buf = Buffer.create 256 in
  Array.iter
    (fun r ->
      match r with
      | Some (a, b) -> Buffer.add_string buf (Printf.sprintf "(%d,%d);" a b)
      | None -> Buffer.add_string buf "killed;")
    results;
  Array.iter (fun t -> Buffer.add_string buf (Printf.sprintf "%.9f;" t)) report.Engine.times;
  List.iter
    (fun (op, calls, bytes) -> Buffer.add_string buf (Printf.sprintf "%s=%d/%d;" op calls bytes))
    report.Engine.profile;
  Buffer.add_string buf
    (Printf.sprintf "sent=%d"
       (Stats.count (Stats.counter report.Engine.stats "msg.sent")));
  Buffer.contents buf

let ring_thunks specs =
  List.map (fun (ranks, rounds) () -> fingerprint (run_ring ~ranks ~rounds ())) specs

let test_ring_pools () =
  List.iter
    (fun width ->
      let thunks = ring_thunks (List.init width (fun i -> (4, 25 - i))) in
      Alcotest.(check (list string))
        (Printf.sprintf "pool of %d runs matches List.map" width)
        (sequential thunks) (Engine.run_many thunks))
    [ 2; 4; 8 ]

let qcheck_count =
  match int_of_string_opt (try Sys.getenv "MULTICORE_QCHECK_COUNT" with Not_found -> "")
  with
  | Some n when n > 0 -> n
  | _ -> 25

let prop_pool_determinism =
  QCheck.Test.make ~name:"multicore: parallel == sequential" ~count:qcheck_count
    QCheck.(list_of_size (Gen.int_range 1 6) (pair (Arb.ranks 2 6) (int_range 1 20)))
    (fun specs ->
      let thunks = ring_thunks specs in
      let seq = sequential thunks in
      let par = Engine.run_many thunks in
      if seq <> par then
        QCheck.Test.fail_reportf "runs %s:@.seq %s@.par %s"
          (String.concat " " (List.map (fun (p, r) -> Printf.sprintf "p=%d/rounds=%d" p r) specs))
          (String.concat " | " seq) (String.concat " | " par);
      true)

(* Taskqueue exactly-once postcondition, in the pool and alone: every
   surviving rank commits the full, correct result vector, the dispatch
   accounting balances, and each pooled run's fingerprint (results,
   clocks, profile, taskqueue counters) equals its sequential twin. *)
let taskqueue_run ~mode () =
  let n = 30 in
  let p = 4 in
  let tasks = Array.init n (fun i -> 1000 + i) in
  let results, report =
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only ~ranks:p
      (fun mpi ->
        let comm = C.of_mpi mpi in
        let rt = C.runtime comm in
        let me = Comm.world_rank mpi in
        let exec id payload =
          Runtime.charge_compute rt me 2e-5;
          (payload * payload) + id
        in
        fst
          (TQ.run
             ~cfg:(TQ.config ~mode ())
             comm ~task_codec:Serial.Codec.int ~result_codec:Serial.Codec.int ~tasks ~exec ()))
  in
  let count name = Stats.count (Stats.counter report.Engine.stats name) in
  ( results,
    count "taskqueue.completed",
    count "taskqueue.duplicates_suppressed",
    Array.to_list report.Engine.times,
    report.Engine.profile )

let test_taskqueue_exactly_once () =
  let n = 30 in
  let expected = Array.init n (fun i -> ((1000 + i) * (1000 + i)) + i) in
  let modes = [ TQ.Master_worker; TQ.Nbx; TQ.Master_worker; TQ.Nbx ] in
  let thunks = List.map (fun mode -> taskqueue_run ~mode) modes in
  let pooled = Engine.run_many thunks in
  Alcotest.(check bool) "pooled runs equal sequential runs" true (pooled = sequential thunks);
  List.iter2
    (fun mode (results, completed, suppressed, _, _) ->
      let name = TQ.mode_to_string mode in
      Array.iteri
        (fun r res ->
          match res with
          | Some out ->
              Alcotest.(check (array int)) (Printf.sprintf "%s rank %d results" name r)
                expected out
          | None -> Alcotest.failf "%s: rank %d has no result" name r)
        results;
      Alcotest.(check int) (name ^ " completions balance") n (completed - suppressed))
    modes pooled

(* ------------------------------------------------------------------ *)
(* Sequential byte-compatibility: the chaos replay log must be
   byte-identical to the golden trace, run alone and in the pool. *)

(* Under `dune runtest` the cwd is the test directory; under `dune exec`
   it is the project root. *)
let read_fixture name =
  let file = List.find Sys.file_exists [ "fixtures/" ^ name; "test/fixtures/" ^ name ] in
  let ic = open_in_bin file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let chaos_ring_program ~rounds comm =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let acc = ref 0 in
  for round = 1 to rounds do
    let v = [| (r * 1000) + round |] in
    P2p.send comm Datatype.int ~dest:((r + 1) mod n) v;
    let d, _ = P2p.recv comm Datatype.int ~source:((r + n - 1) mod n) () in
    acc := !acc + d.(0)
  done;
  !acc

let chaos_ring_with chaos () =
  let results, report =
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only ~chaos
      ~ranks:4 (chaos_ring_program ~rounds:25)
  in
  match report.Engine.chaos_log with
  | Some log -> (results, report.Engine.times, log)
  | None -> Alcotest.fail "chaos log missing"

let chaos_ring =
  chaos_ring_with
    (Chaos.config ~seed:99 ~rates:Chaos.Lossy
       ~plan:(Result.get_ok (Fault_plan.parse "droplink=0>1@3"))
       ())

(* [check_golden ~fixture ~times run] runs the ring alone and three times
   in the pool; every run must print the fixture's log byte for byte
   and, when [times] is given, end each rank at exactly that time. *)
let check_golden ~fixture ?times run =
  let golden = read_fixture fixture in
  let check label (results, rank_times, log) =
    Alcotest.(check (array (option int)))
      (label ^ ": ring results unchanged")
      [| Some 75325; Some 325; Some 25325; Some 50325 |]
      results;
    Alcotest.(check string) (label ^ ": byte-identical to the golden trace") golden log;
    Option.iter
      (fun times ->
        Alcotest.(check (array string))
          (label ^ ": per-rank completion times")
          times
          (Array.map (Printf.sprintf "%h") rank_times))
      times
  in
  check "alone" (run ());
  List.iteri
    (fun i r -> check (Printf.sprintf "pooled %d" i) r)
    (Engine.run_many [ run; run; run ])

let test_golden_chaos_replay () = check_golden ~fixture:"golden_chaos_ring.log" chaos_ring

(* The explicit-knob path: one spec setting every default-rate clause,
   every retry clause, a link override and a partition, whose
   retransmission times show in the partition drops.  The completion
   times pin rto, backoff and jitter_cap; the log pins the rates and the
   draw order. *)
let knob_spec =
  "seed=23;drop=0.08;dup=0.05;reorder=0.06;corrupt=0.03;jitter=3e-05;retries=4;\
   rto=6e-05;backoff=1.5;jitter_cap=2e-05;\
   link=1>2:drop=0.25,dup=0.1,reorder=0.1,corrupt=0.05,jitter=5e-05;\
   partition=0@0.0004-0.0007"

let test_golden_chaos_knobs () =
  check_golden ~fixture:"golden_chaos_knobs.log"
    ~times:[| "0x1.45d3ab209e251p-9"; "0x1.51876725b403ep-9"; "0x1.553479607bc41p-9";
              "0x1.49d2c36a798cp-9" |]
    (chaos_ring_with (Result.get_ok (Chaos.config_of_string knob_spec)))

(* Values a run builds outside itself are shared by the pool's domains:
   RGG generations (the point datatype of its halo exchange) and chaos
   runs (the CRC table of reliable delivery) started together on several
   domains must each equal its sequential twin, and leave no derived
   type committed.  First in the suite, so the pool is the first to touch
   them. *)
let rgg_run ~seed () =
  let adjacency =
    Engine.run_values ~ranks:4 (fun mpi ->
        let g = Graphgen.Rgg2d.generate (C.of_mpi mpi) ~n_per_rank:48 ~seed () in
        List.init (Graphgen.Distgraph.n_local g) (fun l ->
            let ns = ref [] in
            Graphgen.Distgraph.iter_neighbors g l (fun u -> ns := u :: !ns);
            (Graphgen.Distgraph.global_of_local g l, List.sort compare !ns)))
  in
  Printf.sprintf "rgg seed %d: %s" seed
    (String.concat ";"
       (List.map
          (fun (v, ns) ->
            Printf.sprintf "%d>%s" v (String.concat "." (List.map string_of_int ns)))
          (List.concat (Array.to_list adjacency))))

let chaos_run () =
  let results, _, log = chaos_ring () in
  let show = Option.fold ~none:"-" ~some:string_of_int in
  Printf.sprintf "chaos %s %s"
    (String.concat "," (Array.to_list (Array.map show results)))
    (Digest.to_hex (Digest.string log))

let test_shared_values_pooled () =
  let live = Datatype.live_derived_count () in
  let thunks = List.concat_map (fun seed -> [ rgg_run ~seed; chaos_run ]) [ 1; 2; 3; 4 ] in
  let pooled = Engine.run_many thunks in
  Alcotest.(check (list string)) "pooled equal sequential" (sequential thunks) pooled;
  Alcotest.(check int) "no derived type left committed" live
    (Datatype.live_derived_count ())

(* ------------------------------------------------------------------ *)
(* Pool contract. *)

let test_input_order () =
  Alcotest.(check (list int)) "empty list" [] (Engine.run_many []);
  (* Later thunks finish first: their runs are shorter. *)
  let thunks =
    List.init 6 (fun i () ->
        ignore (run_ring ~ranks:4 ~rounds:(60 - (10 * i)) ());
        i)
  in
  Alcotest.(check (list int)) "results in input order" [ 0; 1; 2; 3; 4; 5 ]
    (Engine.run_many thunks)

exception Thunk_failed of int

(* Thunk 1 raises only after a long run while thunk 2 raises at once, so
   thunk 2's failure is the first to happen; the pool must still report
   thunk 1's, and only once every thunk (the slow last one included) has
   finished. *)
let test_lowest_index_reraise () =
  let finished = Atomic.make 0 in
  let slow_ring () = ignore (run_ring ~ranks:4 ~rounds:80 ()) in
  let thunks =
    [
      (fun () -> Atomic.incr finished);
      (fun () ->
        slow_ring ();
        Atomic.incr finished;
        raise (Thunk_failed 1));
      (fun () ->
        Atomic.incr finished;
        raise (Thunk_failed 2));
      (fun () ->
        slow_ring ();
        slow_ring ();
        Atomic.incr finished);
    ]
  in
  (match Engine.run_many thunks with
  | _ -> Alcotest.fail "expected Thunk_failed"
  | exception Thunk_failed i -> Alcotest.(check int) "lowest failing index" 1 i);
  Alcotest.(check int) "every thunk ran to the end before the re-raise" 4
    (Atomic.get finished)

(* ------------------------------------------------------------------ *)
(* [Engine.run ?domains] is compatibility only: every run, whatever plane
   it turns on, executes on one domain, so [~domains:1] is accepted and
   any other width is a usage error. *)

let expect_usage_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Usage_error" name
  | exception Errdefs.Usage_error _ -> ()

let test_domains_compat () =
  ignore (Engine.run ~domains:1 ~ranks:2 (fun _ -> ()) : Engine.report);
  expect_usage_error "chaos + domains" (fun () ->
      Engine.run ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
        ~chaos:(Chaos.config ~seed:1 ~rates:Chaos.Lossy ())
        ~domains:2 ~ranks:2
        (fun _ -> ()));
  expect_usage_error "sanitizer + domains" (fun () ->
      Engine.run ~check_level:Check.Heavy ~domains:2 ~ranks:2 (fun _ -> ()));
  expect_usage_error "domains 0" (fun () -> Engine.run ~domains:0 ~ranks:2 (fun _ -> ()));
  expect_usage_error "negative domains" (fun () ->
      Engine.run ~domains:(-3) ~ranks:2 (fun _ -> ()))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "multicore"
    [
      ( "determinism",
        [
          quick "RGG and chaos runs pooled from a cold start" test_shared_values_pooled;
          quick "ring identical in 2/4/8 pools" test_ring_pools;
          quick "taskqueue exactly-once pooled" test_taskqueue_exactly_once;
          QCheck_alcotest.to_alcotest prop_pool_determinism;
        ] );
      ( "sequential-compat",
        [
          quick "golden chaos replay byte-identical" test_golden_chaos_replay;
          quick "golden knob-path chaos replay byte-identical" test_golden_chaos_knobs;
        ] );
      ( "pool",
        [
          quick "results in input order" test_input_order;
          quick "lowest-index raise, all joined" test_lowest_index_reraise;
        ] );
      ("gates", [ quick "sequential-only planes rejected" test_domains_compat ]);
    ]
