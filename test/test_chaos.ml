(* Chaos plane: CRC framing, fault-plan parsing, deterministic replay,
   reliable-delivery behavior (drops, duplicates, corruption, escalation)
   and the scheduler's wake-on-kill path. *)

open Mpisim

(* --- Wire CRC --- *)

(* The CRC-32 (IEEE 802.3) check vector: crc32("123456789") = 0xCBF43926. *)
let test_crc32_vector () =
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int) "check vector" 0xCBF43926 (Wire.crc32 b ~pos:0 ~len:9)

let test_crc32_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "slice equals whole" 0xCBF43926 (Wire.crc32 b ~pos:2 ~len:9);
  Alcotest.(check int) "empty slice" 0 (Wire.crc32 b ~pos:0 ~len:0 lxor Wire.crc32 b ~pos:0 ~len:0)

let test_crc32_detects_flip () =
  let b = Bytes.of_string "payload payload payload" in
  let len = Bytes.length b in
  let before = Wire.crc32 b ~pos:0 ~len in
  Bytes.set b 7 (Char.chr (Char.code (Bytes.get b 7) lxor 0x10));
  Alcotest.(check bool) "flip changes crc" true (before <> Wire.crc32 b ~pos:0 ~len)

(* --- Fault-plan parsing --- *)

let test_plan_parse_roundtrip () =
  let spec =
    "fail=3@ops:50;fail=1@t:0.002;fail=2@task:4;droplink=0>2@4;partition=0,1@0.001-0.003"
  in
  match Fault_plan.parse spec with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok plan ->
      Alcotest.(check int) "five actions" 5 (List.length plan);
      Alcotest.(check string) "round-trips" spec (Fault_plan.to_string plan)

let test_plan_parse_errors () =
  let bad = [ "fail=3"; "fail=x@ops:1"; "droplink=0>2"; "partition=0,1@5"; "nonsense=1" ] in
  List.iter
    (fun spec ->
      match Fault_plan.parse spec with
      | Ok _ -> Alcotest.failf "expected parse error for %S" spec
      | Error _ -> ())
    bad

let contains s needle =
  let nh = String.length s and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
  go 0

let test_chaos_config_of_string () =
  (match Chaos.config_of_string "42" with
  | Ok cfg ->
      Alcotest.(check int) "bare int is seed" 42 cfg.Chaos.seed;
      Alcotest.(check bool) "bare int is lossy" true (cfg.Chaos.rates = Chaos.Lossy)
  | Error msg -> Alcotest.failf "bare int: %s" msg);
  (match Chaos.config_of_string "seed=7;drop=0.5;retries=3;fail=1@ops:10" with
  | Ok cfg ->
      Alcotest.(check int) "seed" 7 cfg.Chaos.seed;
      Alcotest.(check int) "retries" 3 cfg.Chaos.max_retries;
      Alcotest.(check int) "plan size" 1 (List.length cfg.Chaos.plan);
      (match cfg.Chaos.rates with
      | Chaos.Rates r -> Alcotest.(check (float 1e-9)) "drop" 0.5 r.Chaos.drop
      | Chaos.Perfect | Chaos.Lossy -> Alcotest.fail "rates not set")
  | Error msg -> Alcotest.failf "clauses: %s" msg);
  (* Retry-policy knobs: parse, and round-trip through the replay
     line. *)
  (match Chaos.config_of_string "seed=2;retries=5;rto=0.002;backoff=1.5;jitter_cap=0.0001" with
  | Ok cfg -> (
      Alcotest.(check int) "retries knob" 5 cfg.Chaos.max_retries;
      Alcotest.(check (option (float 1e-9))) "rto knob" (Some 0.002) cfg.Chaos.rto;
      Alcotest.(check (float 1e-9)) "backoff knob" 1.5 cfg.Chaos.backoff;
      Alcotest.(check (float 1e-9)) "jitter_cap knob" 1e-4 cfg.Chaos.jitter_cap;
      match Chaos.config_of_string (Chaos.config_to_string cfg) with
      | Ok cfg' -> Alcotest.(check bool) "retry knobs round-trip" true (cfg = cfg')
      | Error msg -> Alcotest.failf "retry knob replay line: %s" msg)
  | Error msg -> Alcotest.failf "retry knobs: %s" msg);
  (match Chaos.config_of_string "backoff=0.5" with
  | Ok _ -> Alcotest.fail "backoff < 1 accepted"
  | Error _ -> ());
  (* Malformed values are errors that name the offending clause; the
     default rates come from [lossy] or from rate clauses, never both. *)
  List.iter
    (fun (spec, fragments) ->
      match Chaos.config_of_string spec with
      | Ok _ -> Alcotest.failf "%S accepted" spec
      | Error msg ->
          List.iter
            (fun fragment ->
              if not (contains msg fragment) then
                Alcotest.failf "error for %S is %S; expected it to mention %S" spec msg
                  fragment)
            fragments)
    [
      ("seed=3;lossy;drop=0.1", [ "drop=0.1"; "lossy" ]);
      ("seed=3;dup=0.2;lossy", [ "dup=0.2"; "lossy" ]);
      ("drop=5", [ "drop=5"; "[0, 1]" ]);
      ("corrupt=1.5", [ "corrupt=1.5"; "[0, 1]" ]);
      ("link=0>1:reorder=2", [ "link=0>1:reorder=2"; "[0, 1]" ]);
      ("jitter=inf", [ "jitter=inf"; "finite" ]);
      ("rto=inf", [ "rto=inf"; "finite" ]);
      ("rto=nan", [ "rto=nan" ]);
      ("link=0>1:jitter=infinity", [ "jitter=infinity"; "finite" ]);
    ];
  (match Chaos.config_of_string "jitter_cap=inf;drop=1" with
  | Ok cfg ->
      Alcotest.(check (float 0.)) "jitter_cap=inf is the default" infinity
        cfg.Chaos.jitter_cap
  | Error msg -> Alcotest.failf "jitter_cap=inf;drop=1: %s" msg);
  (* The replay line parses back. *)
  match Chaos.config_of_string "seed=5;lossy;retries=2;fail=0@ops:9" with
  | Ok cfg -> (
      match Chaos.config_of_string (Chaos.config_to_string cfg) with
      | Ok cfg' ->
          Alcotest.(check bool) "replay line round-trips" true (cfg = cfg')
      | Error msg -> Alcotest.failf "replay line: %s" msg)
  | Error msg -> Alcotest.failf "setup: %s" msg

(* --- A chaos workload: ring exchange that stresses the message plane --- *)

let ring_program ~rounds comm =
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

let run_ring ?chaos ?(ranks = 4) ?(rounds = 25) () =
  Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only ?chaos
    ~ranks (ring_program ~rounds)

(* --- Determinism: identical seed + plan => byte-identical chaos log --- *)

let test_deterministic_replay () =
  let cfg () =
    Chaos.config ~seed:99 ~rates:Chaos.Lossy
      ~plan:(Result.get_ok (Fault_plan.parse "droplink=0>1@3")) ()
  in
  let _, r1 = run_ring ~chaos:(cfg ()) () in
  let _, r2 = run_ring ~chaos:(cfg ()) () in
  let log r =
    match r.Engine.chaos_log with Some l -> l | None -> Alcotest.fail "chaos log missing"
  in
  Alcotest.(check bool) "log is non-trivial" true (String.length (log r1) > 0);
  Alcotest.(check string) "byte-identical replay" (log r1) (log r2);
  let _, r3 = run_ring ~chaos:(Chaos.config ~seed:100 ~rates:Chaos.Lossy ()) () in
  Alcotest.(check bool) "different seed, different log" true (log r1 <> log r3)

let test_chaos_off_no_log () =
  let _, report = run_ring () in
  Alcotest.(check bool) "no chaos log when off" true (report.Engine.chaos_log = None)

(* Lossy chaos must not change program results: the reliable layer hides
   drops/duplicates/reordering behind retransmission and arrival shifts. *)
let test_lossy_results_correct () =
  let results, report = run_ring ~chaos:(Chaos.config ~seed:3 ~rates:Chaos.Lossy ()) () in
  let expected, _ = run_ring () in
  Alcotest.(check bool) "some chaos events happened" true
    (Stats.count (Stats.counter report.Engine.stats "chaos.dropped")
     + Stats.count (Stats.counter report.Engine.stats "chaos.duplicated")
     + Stats.count (Stats.counter report.Engine.stats "chaos.reordered")
    > 0);
  Alcotest.(check bool) "results unchanged under loss" true (results = expected)

(* --- Targeted drops: the n-th message on a link is retransmitted --- *)

let test_drop_nth () =
  let plan = Result.get_ok (Fault_plan.parse "droplink=0>1@2") in
  let _, report = run_ring ~chaos:(Chaos.config ~seed:1 ~plan ()) () in
  Alcotest.(check int) "exactly one drop" 1
    (Stats.count (Stats.counter report.Engine.stats "chaos.dropped"));
  Alcotest.(check int) "exactly one retransmit" 1
    (Stats.count (Stats.counter report.Engine.stats "chaos.retransmits"));
  Alcotest.(check (list int)) "nobody died" [] report.Engine.killed

(* --- Escalation: a fully dropped link declares the peer failed --- *)

let test_escalation () =
  let rates = { Chaos.perfect_link with Chaos.drop = 1.0 } in
  let caught = ref false in
  let _, report =
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
      ~chaos:(Chaos.config ~seed:1 ~links:[ ((0, 1), rates) ] ~max_retries:2 ())
      ~ranks:2
      (fun comm ->
        if Comm.rank comm = 0 then
          match P2p.send comm Datatype.int ~dest:1 [| 7 |] with
          | () -> ()
          | exception Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ } ->
              caught := true
        else
          (* The victim: the escalating sender declares this rank dead;
             the scheduler wakes and discontinues the parked receive. *)
          ignore (P2p.recv comm Datatype.int ~source:0 ()))
  in
  Alcotest.(check bool) "sender saw ERR_PROC_FAILED" true !caught;
  Alcotest.(check (list int)) "receiver declared failed" [ 1 ] report.Engine.killed;
  Alcotest.(check int) "escalation counted" 1
    (Stats.count (Stats.counter report.Engine.stats "chaos.escalations"))

(* --- Corruption backstop: delivered corruption trips the CRC check --- *)

let test_deliver_corrupt_crc_backstop () =
  let rates = { Chaos.perfect_link with Chaos.corrupt = 1.0 } in
  let violated = ref false in
  (try
     ignore
       (Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
          ~check_level:Check.Light
          ~chaos:(Chaos.config ~seed:1 ~rates:(Chaos.Rates rates) ~deliver_corrupt:true ())
          ~ranks:2
          (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int ~dest:1 [| 123 |]
            else ignore (P2p.recv comm Datatype.int ~source:0 ())))
   with
  | Scheduler.Aborted { exn = Errdefs.Check_violation { check = "crc"; _ }; _ }
  | Errdefs.Check_violation { check = "crc"; _ } ->
      violated := true);
  Alcotest.(check bool) "CRC mismatch detected" true !violated

(* Without deliver_corrupt, corruption is modelled as loss: the payload
   arrives intact after retransmission and the CRC backstop stays quiet. *)
let test_corrupt_as_loss () =
  let rates = { Chaos.perfect_link with Chaos.corrupt = 0.3 } in
  let results, report =
    run_ring ~chaos:(Chaos.config ~seed:5 ~rates:(Chaos.Rates rates) ()) ()
  in
  let expected, _ = run_ring () in
  Alcotest.(check bool) "corruption events occurred" true
    (Stats.count (Stats.counter report.Engine.stats "chaos.corrupted") > 0);
  Alcotest.(check bool) "results unchanged" true (results = expected)

(* --- Duplicates are counted but never double-delivered --- *)

let test_duplicates_not_delivered () =
  let rates = { Chaos.perfect_link with Chaos.duplicate = 0.5 } in
  let results, report =
    run_ring ~chaos:(Chaos.config ~seed:2 ~rates:(Chaos.Rates rates) ()) ()
  in
  let expected, _ = run_ring () in
  Alcotest.(check bool) "duplicates occurred" true
    (Stats.count (Stats.counter report.Engine.stats "chaos.duplicated") > 0);
  Alcotest.(check bool) "no double delivery" true (results = expected)

(* --- Plan triggers --- *)

let test_fail_at_ops () =
  let plan = Result.get_ok (Fault_plan.parse "fail=1@ops:5") in
  let observed = ref false in
  let _, report =
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
      ~chaos:(Chaos.config ~seed:1 ~plan ())
      ~ranks:2
      (fun comm ->
        if Comm.rank comm = 1 then
          for i = 1 to 100 do
            P2p.send comm Datatype.int ~dest:0 [| i |]
          done
        else
          try
            for _ = 1 to 100 do
              ignore (P2p.recv comm Datatype.int ~source:1 ())
            done
          with Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ } ->
            observed := true)
  in
  Alcotest.(check bool) "survivor observed the failure" true !observed;
  Alcotest.(check (list int)) "rank 1 died by plan" [ 1 ] report.Engine.killed;
  Alcotest.(check int) "plan failure counted" 1
    (Stats.count (Stats.counter report.Engine.stats "chaos.plan_failures"))

(* A rank blocked in a receive when its time-based trigger fires must be
   woken and discontinued, not leave the run deadlocked (satellite 6: the
   fail_world_rank wake path, driven here via the chaos plan). *)
let test_fail_at_time_wakes_blocked_victim () =
  let plan = Result.get_ok (Fault_plan.parse "fail=1@t:0.000001") in
  let _, report =
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
      ~chaos:(Chaos.config ~seed:1 ~plan ())
      ~ranks:3
      (fun comm ->
        match Comm.rank comm with
        | 1 ->
            (* Block forever: nobody ever sends to rank 1. *)
            ignore (P2p.recv comm Datatype.int ~source:2 ())
        | 0 ->
            (* Keep injecting so virtual time passes the trigger. *)
            for i = 1 to 50 do
              P2p.send comm Datatype.int ~dest:2 [| i |]
            done
        | _ ->
            for _ = 1 to 50 do
              ignore (P2p.recv comm Datatype.int ~source:0 ())
            done)
  in
  Alcotest.(check (list int)) "blocked victim killed, no deadlock" [ 1 ]
    report.Engine.killed

(* Same wake path, driven directly through Fault.fail_world_rank: the
   fixture that used to hang as a deadlock report before the scheduler
   grew its wake check. *)
let test_fail_world_rank_wakes_blocked_victim () =
  let _, report =
    Engine.run_collect ~ranks:3 (fun comm ->
        match Comm.rank comm with
        | 1 -> ignore (P2p.recv comm Datatype.int ~source:2 ())
        | 0 ->
            (* Give rank 1 a chance to park, then kill it. *)
            Scheduler.yield ();
            Scheduler.yield ();
            Fault.fail_world_rank (Comm.runtime comm) ~world_rank:1
        | _ -> ())
  in
  Alcotest.(check (list int)) "parked victim discontinued" [ 1 ] report.Engine.killed

(* --- Partition: traffic inside a window is treated as lost --- *)

let test_partition_heals () =
  (* Partition {0} | {1} for a window shorter than the run: messages sent
     during the window retransmit until it heals; the program completes. *)
  let plan = Result.get_ok (Fault_plan.parse "partition=0@0-0.0004") in
  let results, report =
    run_ring ~ranks:2 ~rounds:10 ~chaos:(Chaos.config ~seed:1 ~plan ~max_retries:12 ()) ()
  in
  let expected, _ = run_ring ~ranks:2 ~rounds:10 () in
  Alcotest.(check bool) "drops during window" true
    (Stats.count (Stats.counter report.Engine.stats "chaos.dropped") > 0);
  Alcotest.(check bool) "ring completes correctly after heal" true (results = expected)

(* --- Tuned collectives under chaos: deterministic replay --- *)

(* Rabenseifner allreduce and ring allgather have the most intricate
   message patterns of the algorithm engine; under a lossy link profile
   their retransmission schedule must still replay byte-identically, and
   the results must match a chaos-off run. *)
let test_coll_algo_replay () =
  (* 4096 ints = 32KB per call.  Both algorithms are pinned: on 4 ranks
     the cost picks recursive doubling and Bruck, and the replay is meant
     to cover the two intricate patterns. *)
  let elems = 4_096 in
  let program comm =
    let r = Comm.rank comm in
    let sum =
      Coll.allreduce comm Datatype.int Reduce_op.int_sum
        (Array.init elems (fun i -> i + r))
    in
    let gathered = Coll.allgather comm Datatype.int (Array.init elems (fun i -> (r * elems) + i)) in
    (sum.(0), sum.(elems - 1), Array.fold_left ( + ) 0 gathered)
  in
  let run ?chaos () =
    Engine.run_collect
      ~model:
        (Coll_algo.pin
           [
             (Coll_algo.Allreduce, Some Coll_algo.Rabenseifner);
             (Coll_algo.Allgather, Some Coll_algo.Ring);
           ]
           Net_model.ethernet)
      ~clock_mode:Runtime.Virtual_only ?chaos ~ranks:4 program
  in
  (* A denser drop rate than the default lossy profile: the collectives
     send few, large messages, so 2% per attempt may never fire. *)
  let cfg () =
    Chaos.config ~seed:11
      ~rates:(Chaos.Rates { (Chaos.lossy_rates ~latency:25e-6) with Chaos.drop = 0.2 })
      ()
  in
  let res1, r1 = run ~chaos:(cfg ()) () in
  let res2, r2 = run ~chaos:(cfg ()) () in
  let expected, _ = run () in
  let log r =
    match r.Engine.chaos_log with Some l -> l | None -> Alcotest.fail "chaos log missing"
  in
  Alcotest.(check bool) "faults actually fired" true
    (Stats.count (Stats.counter r1.Engine.stats "chaos.dropped") > 0);
  Alcotest.(check int) "rabenseifner ran on every rank" 4
    (Stats.count (Stats.counter r1.Engine.stats "coll.algo.allreduce.rabenseifner"));
  Alcotest.(check int) "ring allgather ran on every rank" 4
    (Stats.count (Stats.counter r1.Engine.stats "coll.algo.allgather.ring"));
  Alcotest.(check string) "byte-identical replay" (log r1) (log r2);
  Alcotest.(check bool) "identical results across replays" true (res1 = res2);
  Alcotest.(check bool) "results match chaos-off run" true (res1 = expected)

(* --- A clause naming a rank outside the run is a usage error --- *)

let test_rank_outside_run clause () =
  let chaos = Result.get_ok (Chaos.config_of_string ("seed=1;" ^ clause)) in
  match run_ring ~ranks:2 ~rounds:2 ~chaos () with
  | _ -> Alcotest.failf "%S ran on 2 ranks" clause
  | exception Errdefs.Usage_error msg ->
      if not (contains msg clause) then
        Alcotest.failf "error for %S is %S; expected it to name the clause" clause msg

(* --- RTT histogram is fed by the reliable layer --- *)

let test_rtt_histogram () =
  let _, report = run_ring ~chaos:(Chaos.config ~seed:1 ~rates:Chaos.Lossy ()) () in
  let h = Stats.histogram report.Engine.stats "reliable.rtt" in
  Alcotest.(check bool) "rtt observations recorded" true (Stats.total h > 0)

(* --- Fault-plan qcheck properties --- *)

(* Random plans whose printed form must parse back to the same printed
   form (print-parse-print idempotence — exactly the property a CLI
   replay line needs).  Times are multiples of 1e-7 so %g regularly
   emits scientific notation ("1e-06"), the form the window separator
   historically mis-split; each is read from its decimal text, so %g
   prints it back to the same float. *)
let gen_action =
  QCheck.Gen.(
    let rank = int_bound 63 in
    let time k = float_of_string (Printf.sprintf "%de-7" k) in
    oneof
      [
        map2
          (fun rank ops -> Fault_plan.Fail_at_ops { rank; ops = ops + 1 })
          rank (int_bound 999);
        map2
          (fun rank k -> Fault_plan.Fail_at_time { rank; time = time k })
          rank (int_bound 999);
        map2
          (fun rank task -> Fault_plan.Fail_at_task { rank; task = task + 1 })
          rank (int_bound 99);
        map3
          (fun src dst n -> Fault_plan.Drop_nth { src; dst; n = n + 1 })
          rank rank (int_bound 99);
        map3
          (fun r0 ranks (k0, dk) ->
            let ranks = List.sort_uniq compare (r0 :: ranks) in
            Fault_plan.Partition
              { ranks; t_start = time k0; t_end = time (k0 + dk) })
          rank
          (list_size (int_bound 4) rank)
          (pair (int_bound 999) (int_bound 999));
      ])

let gen_plan =
  QCheck.make
    ~print:(fun p -> Fault_plan.to_string p)
    QCheck.Gen.(list_size (int_range 1 6) gen_action)

let prop_plan_print_parse_print =
  QCheck.Test.make ~name:"fault plan print/parse/print idempotent" ~count:500 gen_plan
    (fun plan ->
      let s = Fault_plan.to_string plan in
      match Fault_plan.parse s with
      | Error msg -> QCheck.Test.fail_reportf "%S did not parse back: %s" s msg
      | Ok plan' ->
          let s' = Fault_plan.to_string plan' in
          s = s' || QCheck.Test.fail_reportf "%S re-printed as %S" s s')

(* The historical regression: a partition window in scientific notation
   split at the exponent's '-' instead of the separator. *)
let test_partition_scientific_window () =
  let spec = "partition=1,3@1e-06-5e-06" in
  match Fault_plan.parse spec with
  | Error msg -> Alcotest.failf "scientific-notation window rejected: %s" msg
  | Ok plan -> Alcotest.(check string) "round-trips" spec (Fault_plan.to_string plan)

(* Malformed specs must come back as [Error] naming the clause, never as
   an exception or a silent acceptance. *)
let test_plan_malformed_messages () =
  List.iter
    (fun (spec, fragment) ->
      match Fault_plan.parse spec with
      | Ok _ -> Alcotest.failf "expected parse error for %S" spec
      | Error msg ->
          if not (contains msg fragment) then
            Alcotest.failf "error for %S is %S; expected it to mention %S" spec msg
              fragment)
    [
      ("partition=0@1e-06", "window");
      ("partition=@1e-06-2e-06", "integer");
      ("partition=0,1@3e-06-1e-06", "start <= end");
      ("fail=1@q:3", "unknown trigger");
      ("fail=1@task:0", ">= 1");
      ("fail=1@task:x", "integer");
      ("fail=-1@ops:3", "negative rank");
      ("droplink=0>1@0", "1-based");
      ("droplink=0@3", ">");
      ("wobble=1", "unknown fault-plan clause");
    ]

(* --- Hostile input: the text parsers return Ok or Error, never raise --- *)

(* Edits that keep a string close to valid syntax: truncation, a byte
   replaced by a syntactically loaded character, an insertion, a
   deletion, and a run of 0xff. *)
type edit =
  | Cut of int
  | Set of int * char
  | Insert of int * char
  | Delete of int
  | Ff of int * int

let apply_edit s e =
  let n = String.length s in
  if n = 0 then (match e with Insert (_, c) | Set (_, c) -> String.make 1 c | _ -> s)
  else
    match e with
    | Cut at -> String.sub s 0 (at mod n)
    | Set (at, c) -> String.mapi (fun i d -> if i = at mod n then c else d) s
    | Insert (at, c) ->
        let i = at mod (n + 1) in
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | Delete at ->
        let i = at mod n in
        String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | Ff (at, len) ->
        let i = at mod n in
        let len = min len (n - i) in
        String.sub s 0 i ^ String.make len '\xff' ^ String.sub s (i + len) (n - i - len)

let gen_edits =
  let open QCheck.Gen in
  let loaded = oneofl (List.of_seq (String.to_seq "=;,@:>-.eE+0123456789\\\"[]{}\x00\xff ")) in
  let edit =
    oneof
      [
        map (fun at -> Cut at) nat;
        map2 (fun at c -> Set (at, c)) nat (oneof [ loaded; char ]);
        map2 (fun at c -> Insert (at, c)) nat (oneof [ loaded; char ]);
        map (fun at -> Delete at) nat;
        map2 (fun at len -> Ff (at, len)) nat (int_range 1 8);
      ]
  in
  list_size (int_range 1 4) edit

(* [prop_parser_total ~name base parse] edits strings from [base] and
   requires [parse] to return, whatever it is given. *)
let prop_parser_total ~name (base : string QCheck.Gen.t)
    (parse : string -> ('a, string) result) =
  let edited = QCheck.Gen.map2 (List.fold_left apply_edit) base gen_edits in
  QCheck.Test.make ~name ~count:2000 (QCheck.make ~print:(Printf.sprintf "%S") edited)
    (fun s ->
      match parse s with
      | Ok _ | Error _ -> true
      | exception exn ->
          QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string exn))

let prop_fault_plan_total =
  prop_parser_total ~name:"hostile input: Fault_plan.parse is total"
    (QCheck.Gen.map Fault_plan.to_string (QCheck.gen gen_plan))
    Fault_plan.parse

(* Configs that set every kind of clause: default rates (perfect, lossy
   or explicit), link overrides, every retry knob and a fault plan. *)
let gen_chaos_config =
  QCheck.Gen.(
    let prob = oneof [ return 0.; float_range 0. 1. ] in
    let link_rates =
      map
        (fun (drop, duplicate, reorder, (corrupt, jitter)) ->
          { Chaos.drop; duplicate; reorder; corrupt; jitter })
        (quad prob prob prob (pair prob (oneof [ return 0.; float_range 0. 1e-4 ])))
    in
    let rates =
      oneof
        [ return Chaos.Perfect; return Chaos.Lossy; map (fun r -> Chaos.Rates r) link_rates ]
    in
    let link = pair (pair (int_bound 15) (int_bound 15)) link_rates in
    map
      (fun ((seed, rates, links, plan), (retries, rto, backoff, jitter_cap)) ->
        Chaos.config ~seed ~rates ~links ~plan ?max_retries:retries ?rto ?backoff
          ?jitter_cap ())
      (pair
         (quad nat rates (list_size (int_bound 2) link)
            (list_size (int_bound 3) gen_action))
         (quad (opt (int_range 0 12)) (opt (float_range 1e-4 1e-2))
            (opt (float_range 1. 3.))
            (opt (oneof [ return infinity; float_range 0. 1e-3 ])))))

let gen_chaos_spec = QCheck.Gen.map Chaos.config_to_string gen_chaos_config

(* The replay line parses back to the config that printed it. *)
let prop_chaos_spec_roundtrip =
  QCheck.Test.make ~name:"chaos spec replay line parses back equal"
    ~count:500
    (QCheck.make ~print:Chaos.config_to_string gen_chaos_config)
    (fun cfg ->
      match Chaos.config_of_string (Chaos.config_to_string cfg) with
      | Ok cfg' -> cfg' = cfg || QCheck.Test.fail_reportf "parsed back differently"
      | Error msg -> QCheck.Test.fail_reportf "did not parse back: %s" msg)

let prop_chaos_spec_total =
  prop_parser_total ~name:"hostile input: Chaos.config_of_string is total" gen_chaos_spec
    Chaos.config_of_string

let gen_json =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let scalar =
             oneofl [ "null"; "true"; "false"; "-2.5e1"; "0"; {|"x\nA"|}; {|"\ud83d\ude00"|} ]
           in
           if depth = 0 then scalar
           else
             oneof
               [
                 scalar;
                 map
                   (fun xs -> "[" ^ String.concat ", " xs ^ "]")
                   (list_size (int_bound 3) (self (depth - 1)));
                 map
                   (fun xs ->
                     let field i v = Printf.sprintf {|"k%d": %s|} i v in
                     "{" ^ String.concat ", " (List.mapi field xs) ^ "}")
                   (list_size (int_bound 3) (self (depth - 1)));
               ]))

let prop_json_total =
  prop_parser_total ~name:"hostile input: Json_in.parse is total" gen_json Json_in.parse

(* Nesting far past the parser's depth bound, closed and unclosed, in
   both bracket kinds: an [Error], never [Stack_overflow]. *)
let test_json_deep_nesting () =
  let depth = 200_000 in
  List.iter
    (fun (label, src) ->
      match Json_in.parse src with
      | Ok _ -> Alcotest.failf "%s: accepted %d levels" label depth
      | Error _ -> ()
      | exception exn -> Alcotest.failf "%s raised %s" label (Printexc.to_string exn))
    [
      ("closed arrays", String.make depth '[' ^ "1" ^ String.make depth ']');
      ("unclosed arrays", String.make depth '[');
      ("unclosed objects", String.concat "" (List.init depth (fun _ -> {|{"a":|})));
    ]

let qtest = QCheck_alcotest.to_alcotest

(* --- Delivered corruption stays on its hop --- *)

(* A 4-rank ring allgatherv whose link 1 -> 2 delivers corrupted
   payloads.  Seed [corrupt_forward_seed] corrupts one message on that
   link: rank 1's last-round forward of rank 3's block, whose earlier
   readers (ranks 0 and 1) read it only after the forward, at the end of
   their ring.  The corruption lands in a copy bound for rank 2 alone:
   rank 2's CRC check fires, and every other rank ends with the clean
   block. *)
let corrupt_forward_seed = 5

let corrupt_forward_block ~rank = Array.init (5 + rank) (fun i -> (rank * 100) + i)

let test_corrupt_forward_isolated () =
  let rates = { Chaos.perfect_link with Chaos.corrupt = 0.5 } in
  let chaos =
    Chaos.config ~seed:corrupt_forward_seed ~links:[ ((1, 2), rates) ] ~deliver_corrupt:true ()
  in
  let recv_counts = Array.init 4 (fun r -> 5 + r) in
  let results, report =
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only ~chaos
      ~ranks:4 (fun comm ->
        match
          Coll.allgatherv comm Datatype.int ~recv_counts
            (corrupt_forward_block ~rank:(Comm.rank comm))
        with
        | got -> Ok got
        | exception Errdefs.Mpi_error { code = Errdefs.Err_other "ERR_DATA_CORRUPT"; _ } ->
            Error "crc")
  in
  (* Rank 2 raises at the corrupted receive and forwards nothing after
     it, so the other ranks complete only if it was the last. *)
  Alcotest.(check int)
    "one delivered corruption" 1
    (Stats.count (Stats.counter report.Engine.stats "chaos.corrupted"));
  let clean = Array.concat (List.init 4 (fun r -> corrupt_forward_block ~rank:r)) in
  Array.iteri
    (fun r res ->
      let want = if r = 2 then Some (Error "crc") else Some (Ok clean) in
      if res <> want then
        Alcotest.failf "rank %d: %s" r
          (match res with
          | Some (Ok _) -> "a wrong block"
          | Some (Error e) -> e
          | None -> "no result"))
    results

let tests =
  [
    qtest prop_fault_plan_total;
    qtest prop_chaos_spec_total;
    qtest prop_json_total;
    Alcotest.test_case "hostile input: 200k-deep JSON" `Quick test_json_deep_nesting;
    Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
    Alcotest.test_case "crc32 slices" `Quick test_crc32_slice;
    Alcotest.test_case "crc32 detects bit flip" `Quick test_crc32_detects_flip;
    Alcotest.test_case "fault plan round-trip" `Quick test_plan_parse_roundtrip;
    Alcotest.test_case "fault plan errors" `Quick test_plan_parse_errors;
    Alcotest.test_case "partition window in scientific notation" `Quick
      test_partition_scientific_window;
    Alcotest.test_case "malformed plans name the clause" `Quick
      test_plan_malformed_messages;
    qtest prop_plan_print_parse_print;
    qtest prop_chaos_spec_roundtrip;
    Alcotest.test_case "chaos spec parsing" `Quick test_chaos_config_of_string;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "no log when off" `Quick test_chaos_off_no_log;
    Alcotest.test_case "lossy run is correct" `Quick test_lossy_results_correct;
    Alcotest.test_case "drop nth message" `Quick test_drop_nth;
    Alcotest.test_case "escalation to ERR_PROC_FAILED" `Quick test_escalation;
    Alcotest.test_case "delivered corruption trips CRC" `Quick
      test_deliver_corrupt_crc_backstop;
    Alcotest.test_case "corruption as loss" `Quick test_corrupt_as_loss;
    Alcotest.test_case "delivered corruption stays on its hop" `Quick
      test_corrupt_forward_isolated;
    Alcotest.test_case "duplicates not delivered" `Quick test_duplicates_not_delivered;
    Alcotest.test_case "fail at op count" `Quick test_fail_at_ops;
    Alcotest.test_case "fail at time wakes blocked victim" `Quick
      test_fail_at_time_wakes_blocked_victim;
    Alcotest.test_case "fail_world_rank wakes blocked victim" `Quick
      test_fail_world_rank_wakes_blocked_victim;
    Alcotest.test_case "partition heals" `Quick test_partition_heals;
    Alcotest.test_case "fail= rank outside the run" `Quick
      (test_rank_outside_run "fail=9@ops:2");
    Alcotest.test_case "link= rank outside the run" `Quick
      (test_rank_outside_run "link=0>2:drop=0.5");
    Alcotest.test_case "droplink= rank outside the run" `Quick
      (test_rank_outside_run "droplink=3>0@1");
    Alcotest.test_case "partition= rank outside the run" `Quick
      (test_rank_outside_run "partition=0,5@0-0.001");
    Alcotest.test_case "reliable rtt histogram" `Quick test_rtt_histogram;
    Alcotest.test_case "tuned collectives replay deterministically" `Quick
      test_coll_algo_replay;
  ]

let () = Alcotest.run "chaos" [ ("chaos", tests) ]
