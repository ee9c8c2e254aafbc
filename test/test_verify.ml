(* The verification plane: the bounded schedule-space model checker
   (Explore over Choice-controlled lazy matching) and the offline
   happens-before analyzer (Hb over trace streams, with vector clocks
   derived from the send and match events). *)

open Mpisim

let prog name = (Option.get (Progs.find name)).Progs.body

let counter (report : Engine.report) name =
  Stats.count (Stats.counter report.Engine.stats name)

let with_stream f =
  let path = Filename.temp_file "mpisim_verify" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Record [body] as a trace stream and hand the analysis to [f]. *)
let analyze_run ?(ranks = 2) ?(check = Check.Off) body f =
  with_stream (fun path ->
      let report =
        Engine.run ~model:Net_model.omnipath ~check_level:check ~trace_stream:path ~ranks
          body
      in
      match Hb.analyze path with
      | Ok r -> f report r
      | Error msg -> Alcotest.failf "analyze failed: %s" msg)

(* --- model checker: violation detection --- *)

let test_explore_wildcard () =
  let r = Explore.explore ~ranks:2 (prog "wildcard_race") in
  Alcotest.(check int) "two schedules (second recv has one head left)" 2
    r.Explore.explored;
  Alcotest.(check int) "first decision branches on both sends" 2 r.Explore.max_branching;
  Alcotest.(check bool) "nondet-match violation" true
    (List.exists (fun v -> v.Explore.v_class = "nondet-match") r.Explore.violations);
  Alcotest.(check bool) "not certified deterministic" false r.Explore.match_deterministic

let test_explore_deadlock () =
  let r = Explore.explore ~ranks:2 (prog "deadlock") in
  Alcotest.(check bool) "deadlock violation" true
    (List.exists (fun v -> v.Explore.v_class = "deadlock") r.Explore.violations);
  Alcotest.(check bool) "not deadlock-free" false r.Explore.deadlock_free

let test_explore_coll_mismatch () =
  let r = Explore.explore ~ranks:2 (prog "coll_mismatch") in
  Alcotest.(check bool) "collective violation" true
    (List.exists (fun v -> v.Explore.v_class = "collective") r.Explore.violations)

(* --- model checker: certification of clean programs --- *)

let test_certify_clean_ring () =
  let r = Explore.explore ~ranks:4 (prog "clean_ring") in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Explore.v_class) r.Explore.violations);
  Alcotest.(check int) "one deterministic schedule" 1 r.Explore.explored;
  Alcotest.(check bool) "deadlock-free" true r.Explore.deadlock_free;
  Alcotest.(check bool) "match-deterministic" true r.Explore.match_deterministic

let test_certify_clean_coll () =
  let r = Explore.explore ~ranks:4 (prog "clean_coll") in
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun v -> v.Explore.v_class) r.Explore.violations);
  Alcotest.(check bool) "deadlock-free" true r.Explore.deadlock_free

(* The master-worker program at p=4: three concurrent senders drained by
   wildcard receives gives exactly 3! = 6 non-equivalent schedules (the
   non-overtaking reduction collapses everything else). *)
let test_hidden_race_schedule_space () =
  let r = Explore.explore ~ranks:4 (prog "hidden_race") in
  Alcotest.(check int) "3! schedules" 6 r.Explore.explored;
  Alcotest.(check int) "three-way first decision" 3 r.Explore.max_branching;
  Alcotest.(check bool) "deadlock-free in every interleaving" true r.Explore.deadlock_free;
  Alcotest.(check bool) "but not match-deterministic" false r.Explore.match_deterministic;
  Alcotest.(check bool) "nondet-match witnessed" true
    (List.exists (fun v -> v.Explore.v_class = "nondet-match") r.Explore.violations)

let test_truncation () =
  let r = Explore.explore ~max_schedules:2 ~ranks:4 (prog "hidden_race") in
  Alcotest.(check bool) "truncated" true r.Explore.truncated;
  Alcotest.(check int) "stopped at the bound" 2 r.Explore.explored;
  Alcotest.(check bool) "truncated space is not a certificate" false
    r.Explore.deadlock_free

(* The breadth-first search's counts, pinned per program at p=2 and p=4:
   (explored, pruned, max_branching), plus the classes found. *)
let test_pinned_counts () =
  let expected =
    [
      ("wildcard_race", 2, (2, 0, 2), [ "nondet-match" ]);
      ("wildcard_race", 4, (2, 0, 2), [ "nondet-match" ]);
      ("hidden_race", 2, (1, 0, 1), []);
      ("hidden_race", 4, (6, 0, 3), [ "nondet-match" ]);
      ("deadlock", 2, (1, 0, 0), [ "deadlock" ]);
      ("deadlock", 4, (1, 0, 0), [ "deadlock" ]);
      ("coll_mismatch", 2, (1, 0, 0), [ "collective" ]);
      ("coll_mismatch", 4, (1, 0, 0), [ "collective" ]);
      ("clean_ring", 2, (1, 0, 0), []);
      ("clean_ring", 4, (1, 0, 0), []);
      ("clean_coll", 2, (1, 0, 0), []);
      ("clean_coll", 4, (1, 0, 0), []);
      ("wildcard_beside_icoll", 2, (1, 0, 1), []);
      ("wildcard_beside_icoll", 4, (1, 0, 1), []);
      ("opposite_icoll", 2, (1, 0, 0), []);
      ("opposite_icoll", 4, (1, 0, 0), []);
      ("recv_beside_icoll", 2, (1, 0, 0), []);
      ("recv_beside_icoll", 4, (1, 0, 0), []);
      ("nc_reduce", 2, (1, 0, 0), []);
      ("nc_reduce", 4, (1, 0, 0), []);
      ("big_send", 2, (1, 0, 0), []);
      ("big_send", 4, (1, 0, 0), []);
    ]
  in
  Alcotest.(check int)
    "every program pinned" (2 * List.length Progs.all) (List.length expected);
  List.iter
    (fun (name, ranks, counts, classes) ->
      let r = Explore.explore ~ranks (prog name) in
      let what = Printf.sprintf "%s p=%d" name ranks in
      Alcotest.(check (triple int int int))
        (what ^ ": explored, pruned, max branching")
        counts
        (r.Explore.explored, r.Explore.pruned, r.Explore.max_branching);
      Alcotest.(check (list string))
        (what ^ ": classes") classes
        (List.map (fun v -> v.Explore.v_class) r.Explore.violations))
    expected

(* A bound cuts the search at exactly that many schedules: hidden_race at
   p=5 has 24, and any smaller bound explores exactly that many, reports
   the truncation and keeps the first witness. *)
let test_budget_cuts () =
  List.iter
    (fun max_schedules ->
      let r = Explore.explore ~max_schedules ~ranks:5 (prog "hidden_race") in
      let full = max_schedules >= 24 in
      Alcotest.(check (pair int bool))
        (Printf.sprintf "bound %d: explored, truncated" max_schedules)
        ((if full then 24 else max_schedules), not full)
        (r.Explore.explored, r.Explore.truncated);
      Alcotest.(check (list (pair string (list int))))
        (Printf.sprintf "bound %d: first witness" max_schedules)
        [ ("nondet-match", []) ]
        (List.map (fun v -> (v.Explore.v_class, v.Explore.v_script)) r.Explore.violations))
    [ 1; 2; 3; 5; 6; 23; 24; 100 ]

(* --- replay --- *)

let test_witness_replays () =
  let r = Explore.explore ~ranks:2 (prog "wildcard_race") in
  let v =
    List.find (fun v -> v.Explore.v_class = "nondet-match") r.Explore.violations
  in
  let replayed = Explore.replay ~ranks:2 ~script:v.Explore.v_script (prog "wildcard_race") in
  Alcotest.(check string) "witness replays to the same class" "nondet-match"
    (Explore.replay_class replayed)

let test_replay_forces_alternative () =
  let _, decisions, _ = Explore.replay ~ranks:2 ~script:[ 1 ] (prog "wildcard_race") in
  Alcotest.(check (list int)) "scripted choice taken, then default" [ 1; 0 ]
    (List.map (fun (d : Choice.decision) -> d.Choice.d_chosen) decisions)

let test_script_roundtrip () =
  Alcotest.(check bool) "parses" true (Choice.script_of_string "1,0,2" = Ok [ 1; 0; 2 ]);
  Alcotest.(check bool) "empty is empty" true (Choice.script_of_string "" = Ok []);
  Alcotest.(check string) "prints" "1,0,2" (Choice.script_to_string [ 1; 0; 2 ]);
  Alcotest.(check bool) "garbage rejected" true
    (match Choice.script_of_string "1,x" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "negatives rejected" true
    (match Choice.script_of_string "-1" with Error _ -> true | Ok _ -> false)

(* --- vector clocks --- *)

let test_vc_concurrent () =
  let c = Report.vc_concurrent in
  Alcotest.(check bool) "incomparable" true (c [| 0; 1; 0 |] [| 0; 0; 1 |]);
  Alcotest.(check bool) "ordered" false (c [| 0; 1; 0 |] [| 1; 1; 0 |]);
  Alcotest.(check bool) "equal" false (c [| 2; 2 |] [| 2; 2 |]);
  Alcotest.(check bool) "trimmed clock below a longer one" false (c [| 1 |] [| 1; 2 |]);
  Alcotest.(check bool) "trimmed clocks still compare" true (c [| 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "empty is not concurrency" false (c [||] [||])

(* Fold a stream through Hb.Clocks and collect, per rank and in order, the
   clock each send and match derived, plus each send's snapshot under its
   message seq. *)
let derived_clocks path =
  let clocks = ref (Hb.Clocks.create ~ranks:0) in
  let per_rank = Hashtbl.create 16 in
  let pairs = ref [] in
  Trace_stream.fold_file path
    ~on_header:(fun ranks -> clocks := Hb.Clocks.create ~ranks)
    ~init:()
    ~f:(fun () rank ev ->
      if Hb.Clocks.step !clocks rank ev then begin
        let vc = Hb.Clocks.clock !clocks rank in
        let prev = Option.value (Hashtbl.find_opt per_rank rank) ~default:[] in
        Hashtbl.replace per_rank rank (vc :: prev);
        if ev.Trace_stream.name <> "send" then
          match Hb.Clocks.send_clock !clocks ev.b with
          | Some sent -> pairs := (sent, vc) :: !pairs
          | None -> ()
      end)
  |> Result.map (fun ((), _) -> (per_rank, !pairs))

(* [a] strictly below [b]: component-wise <=, and not equal (trimmed
   clocks are zero past their end). *)
let vc_le a b =
  let n = max (Array.length a) (Array.length b) in
  List.for_all (fun i -> Report.vc_get a i <= Report.vc_get b i) (List.init n Fun.id)

let vc_lt a b = vc_le a b && not (vc_le b a)

(* The README's witness, pinned: at p=3 each wildcard receive of
   hidden_race matched one worker's first send, and the two workers'
   clocks are incomparable. *)
let test_hidden_race_witness_clocks () =
  analyze_run ~ranks:3 (prog "hidden_race") (fun _ r ->
      Alcotest.(check int) "one clock per send and per match" 4 r.Hb.vcs;
      let details =
        List.filter_map
          (fun f ->
            if f.Report.f_class = "wildcard-race" then Some f.Report.f_detail else None)
          r.Hb.findings
      in
      Alcotest.(check (list string)) "witness clocks"
        [
          "wildcard recv (src any, tag any) matched send 0 from rank 1 (vc <0,1,0>), but 1 \
           concurrent candidate(s) could have matched instead: send 1 from rank 2 (vc \
           <0,0,1>)";
          "wildcard recv (src any, tag any) matched send 1 from rank 2 (vc <0,0,1>), but 1 \
           concurrent candidate(s) could have matched instead: send 0 from rank 1 (vc \
           <0,1,0>)";
        ]
        details)

(* The clock condition on a real workload: every send's clock is strictly
   below its match's clock, and a rank's clock never decreases (it grows
   at every send and match), for any rank count. *)
let prop_clock_condition =
  QCheck.Test.make ~name:"offline clocks: send < match, per-rank monotone" ~count:12
    QCheck.(pair (Arb.ranks 2 9) (int_bound 1000))
    (fun (p, seed) ->
      with_stream (fun path ->
          let (_ : Engine.report) =
            Engine.run ~clock_mode:Runtime.Virtual_only ~trace_stream:path ~ranks:p
              (fun comm ->
                let rng = Xoshiro.create ~seed ~stream:(Comm.rank comm) in
                let data = Array.init 60 (fun _ -> Xoshiro.next_int rng ~bound:1000) in
                ignore (Sample_sort.Ss_kamping.sort comm data))
          in
          match derived_clocks path with
          | Error msg -> QCheck.Test.fail_reportf "fold failed: %s" msg
          | Ok (per_rank, pairs) ->
              let rec increasing = function
                | later :: (earlier :: _ as rest) -> vc_lt earlier later && increasing rest
                | _ -> true
              in
              pairs <> []
              && List.for_all (fun (sent, matched) -> vc_lt sent matched) pairs
              && Hashtbl.fold (fun _ vcs ok -> ok && increasing vcs) per_rank true))

(* --- analyzer findings --- *)

(* The headline scenario: the runtime race counter reports zero (each
   wildcard receive is posted before any competing send has arrived), yet
   the analyzer proves the race offline from the vector clocks. *)
let test_analyzer_beats_single_run_counter () =
  analyze_run ~ranks:3 ~check:Check.Heavy (prog "hidden_race") (fun report r ->
      Alcotest.(check int) "runtime counter blind to the race" 0
        (counter report "check.wildcard_race");
      Alcotest.(check bool) "clocks derived from the stream" true (r.Hb.vcs > 0);
      Alcotest.(check int) "both wildcard receives seen" 2 r.Hb.wildcard_posts;
      Alcotest.(check bool) "analyzer proves the race" true
        (Report.has_class r.Hb.findings "wildcard-race"))

let test_analyzer_clean_trace () =
  analyze_run ~ranks:4 (prog "clean_ring") (fun _ r ->
      Alcotest.(check (list string)) "no findings" [] (Report.classes r.Hb.findings))

let test_analyzer_nc_order () =
  analyze_run ~ranks:3 (prog "nc_reduce") (fun _ r ->
      Alcotest.(check bool) "nc-order reported" true
        (Report.has_class r.Hb.findings "nc-order"))

(* The commutative clean_coll program lowers to the same sends but must
   NOT trigger nc-order: order-insensitivity makes the concurrency
   harmless. *)
let test_analyzer_commutative_silent () =
  analyze_run ~ranks:3 (prog "clean_coll") (fun _ r ->
      Alcotest.(check bool) "no nc-order for commutative ops" false
        (Report.has_class r.Hb.findings "nc-order"))

let test_analyzer_buffer_reuse () =
  analyze_run ~ranks:2 (prog "big_send") (fun _ r ->
      Alcotest.(check bool) "buffer-reuse window reported" true
        (Report.has_class r.Hb.findings "buffer-reuse");
      let f =
        List.find (fun f -> f.Report.f_class = "buffer-reuse") r.Hb.findings
      in
      Alcotest.(check int) "anchored on the sender" 0 f.Report.f_rank)

let test_analyzer_missing_file () =
  match Hb.analyze "/nonexistent/trace.bin" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a file error"

let analyzer_instants = [ "post"; "matched"; "send_meta"; "nc_order" ]

(* The analyzer's extra instants ride only on stream captures: a ring
   trace of the same programs keeps its exact event mix. *)
let test_ring_has_no_analyzer_instants () =
  List.iter
    (fun name ->
      let report =
        Engine.run ~model:Net_model.omnipath ~trace_capacity:1024 ~ranks:3 (prog name)
      in
      let tr = report.Engine.trace in
      let names = ref [] in
      for rank = 0 to 2 do
        List.iter
          (fun e -> names := e.Trace_stream.name :: !names)
          (Trace.events tr rank)
      done;
      Alcotest.(check bool) (name ^ ": ring trace recorded sends") true
        (List.mem "send" !names);
      Alcotest.(check (list string)) (name ^ ": no analyzer instants") []
        (List.filter (fun n -> List.mem n analyzer_instants) !names))
    [ "hidden_race"; "nc_reduce" ]

(* --- hostile stream input --- *)

let write_bytes path b =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let header ~ranks =
  let b = Bytes.create 9 in
  Bytes.blit_string "MPTS" 0 b 0 4;
  Bytes.set_uint8 b 4 1;
  Bytes.set_int32_le b 5 (Int32.of_int ranks);
  b

(* [f ()] must return an [Error] while allocating far less than [claimed]
   bytes. *)
let check_rejected_cheaply ~claimed label f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  let grown = Gc.allocated_bytes () -. before in
  (match r with
  | Error (_ : string) -> ()
  | Ok _ -> Alcotest.failf "%s: expected an Error" label);
  Alcotest.(check bool)
    (Printf.sprintf "%s: allocated %.0f bytes, claimed %.0f" label grown claimed)
    true
    (grown < claimed /. 1000.)

let fold_count path = Trace_stream.fold_file path ~init:0 ~f:(fun n _ _ -> n + 1)

let test_hostile_rank_count () =
  with_stream (fun path ->
      write_bytes path (header ~ranks:0x7fff_ffff);
      let claimed = 8. *. float_of_int 0x7fff_ffff in
      check_rejected_cheaply ~claimed "fold" (fun () -> fold_count path);
      check_rejected_cheaply ~claimed "analyze" (fun () -> Hb.analyze path))

let test_hostile_record_length () =
  with_stream (fun path ->
      let frame = Bytes.create 5 in
      Bytes.set_uint8 frame 0 2;
      Bytes.set_int32_le frame 1 (Int32.of_int (1 lsl 31 - 1));
      write_bytes path (Bytes.cat (header ~ranks:2) frame);
      let claimed = float_of_int (1 lsl 31) in
      check_rejected_cheaply ~claimed "fold" (fun () -> fold_count path);
      check_rejected_cheaply ~claimed "analyze" (fun () -> Hb.analyze path))

(* Well-formed streams with odd causality: a match whose send never
   appears, and a match recorded before its send.  Neither merges a
   snapshot; both still derive a clock. *)
let test_unpaired_matches () =
  with_stream (fun path ->
      let w = Trace_stream.create ~path ~ranks:2 in
      let instant ~rank name ~a ~b =
        Trace_stream.write_event w ~rank
          { kind = Instant; cat = "sim"; name; ts = 0.; dur = 0.; a; b; c = 8; d = -1 }
      in
      instant ~rank:0 "match" ~a:1 ~b:42;
      instant ~rank:0 "match" ~a:1 ~b:7;
      instant ~rank:1 "send" ~a:0 ~b:7;
      Trace_stream.close w;
      (match derived_clocks path with
      | Error msg -> Alcotest.failf "fold failed: %s" msg
      | Ok (per_rank, pairs) ->
          Alcotest.(check (list (array int))) "rank 0 ticks alone"
            [ [| 2 |]; [| 1 |] ]
            (Hashtbl.find per_rank 0);
          Alcotest.(check (list (array int))) "rank 1's send is untouched"
            [ [| 0; 1 |] ]
            (Hashtbl.find per_rank 1);
          Alcotest.(check int) "no send preceded its match" 0 (List.length pairs));
      match Hb.analyze path with
      | Error msg -> Alcotest.failf "analyze failed: %s" msg
      | Ok r ->
          Alcotest.(check int) "three clocks" 3 r.Hb.vcs;
          Alcotest.(check (list string)) "no findings" [] (Report.classes r.Hb.findings))

(* One mutation of a captured stream. *)
type mutation = Truncate of int | Flip of int | Oversize of int * int

let show_mutation = function
  | Truncate n -> Printf.sprintf "truncate at %d" n
  | Flip bit -> Printf.sprintf "flip bit %d" bit
  | Oversize (off, len) -> Printf.sprintf "length field at %d := %d" off len

(* Offsets of every record's length field in a well-formed stream. *)
let length_fields b =
  let rec go off acc =
    if off + 5 > Bytes.length b then List.rev acc
    else go (off + 5 + Int32.to_int (Bytes.get_int32_le b (off + 1))) ((off + 1) :: acc)
  in
  go 9 []

let apply_mutation b = function
  | Truncate n -> Bytes.sub b 0 n
  | Flip bit ->
      let b = Bytes.copy b in
      let i = bit / 8 in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl (bit mod 8)));
      b
  | Oversize (off, len) ->
      let b = Bytes.copy b in
      Bytes.set_int32_le b off (Int32.of_int len);
      b

(* A real capture, mutated: truncated anywhere, a bit flipped anywhere
   (header, tags, lengths, ranks, seqs, string ids), or a record length
   (or the header's rank count) overwritten with an oversize value.  The
   reader and the analyzer must answer Ok or Error, never raise. *)
let prop_hostile_streams =
  let captured =
    lazy
      (with_stream (fun path ->
           let (_ : Engine.report) =
             Engine.run ~clock_mode:Runtime.Virtual_only ~trace_stream:path ~ranks:3
               (fun comm ->
                 (prog "hidden_race") comm;
                 Coll.barrier comm;
                 (prog "nc_reduce") comm)
           in
           In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string))
  in
  let gen =
    let open QCheck.Gen in
    let b = Lazy.force captured in
    let n = Bytes.length b in
    let fields = Array.of_list (5 :: length_fields b) in
    let oversize =
      oneof
        [
          int_range (n - 8) (n + 8);
          oneofl [ 1 lsl 20; (1 lsl 31) - 1; 0x7fff_fff0; 0x8000_0000 - 9; -1 ];
        ]
    in
    frequency
      [
        (1, map (fun k -> Truncate k) (int_bound n));
        (3, map (fun bit -> Flip bit) (int_bound ((8 * n) - 1)));
        ( 2,
          map2
            (fun i len -> Oversize (fields.(i), len))
            (int_bound (Array.length fields - 1))
            oversize );
      ]
  in
  QCheck.Test.make ~name:"hostile streams: Ok or Error, never raise" ~count:300
    (QCheck.make ~print:show_mutation gen)
    (fun m ->
      with_stream (fun path ->
          write_bytes path (apply_mutation (Lazy.force captured) m);
          (match fold_count path with Ok _ | Error _ -> ());
          (match Hb.analyze path with Ok _ | Error _ -> ());
          true))

(* --- zero-cost-when-off discipline --- *)

(* Outside the model checker and with tracing off, the hooks the
   verification plane put on the p2p hot path are a field read on the
   mailbox ([Mailbox.defers_wildcards]) and the stream-capture gate
   ([Trace.is_streaming], a field read on a disabled recorder); same
   harness as the Check off-level test. *)
let test_off_hooks_are_free () =
  let mb = Mailbox.create () in
  Alcotest.(check bool) "not deferring" false (Mailbox.defers_wildcards mb);
  let tr = Trace.create ~clocks:[| 0.; 0. |] in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Mailbox.defers_wildcards mb then incr hits;
    if Trace.is_streaming tr then incr hits
  done;
  let allocated = Gc.minor_words () -. w0 in
  Alcotest.(check int) "guards never fired" 0 !hits;
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f words for 20k guarded sites" allocated)
    true (allocated < 100.)

(* The analyzer gate follows the sink: off without tracing and under a
   ring, on while a stream records, off again once the stream closes. *)
let test_gate_follows_sink () =
  let tr = Trace.create ~clocks:[| 0.; 0. |] in
  Alcotest.(check bool) "disabled" false (Trace.is_streaming tr);
  Trace.enable tr;
  Alcotest.(check bool) "ring" false (Trace.is_streaming tr);
  with_stream (fun path ->
      Trace.enable_stream tr ~path;
      Alcotest.(check bool) "stream" true (Trace.is_streaming tr);
      Trace.close_stream tr;
      Alcotest.(check bool) "closed stream" false (Trace.is_streaming tr));
  let during = ref true in
  let (_ : Engine.report) =
    Engine.run ~model:Net_model.zero_cost
      ~on_runtime:(fun rt -> during := Trace.is_streaming rt.Runtime.trace)
      ~ranks:2
      (fun _ -> ())
  in
  Alcotest.(check bool) "untraced run" false !during

let () =
  Alcotest.run "verify"
    [
      ( "explore",
        [
          Alcotest.test_case "wildcard race branches" `Quick test_explore_wildcard;
          Alcotest.test_case "deadlock cycle" `Quick test_explore_deadlock;
          Alcotest.test_case "collective mismatch" `Quick test_explore_coll_mismatch;
          Alcotest.test_case "clean ring certified" `Quick test_certify_clean_ring;
          Alcotest.test_case "clean collectives certified" `Quick test_certify_clean_coll;
          Alcotest.test_case "hidden race schedule space" `Quick
            test_hidden_race_schedule_space;
          Alcotest.test_case "bounded exploration truncates" `Quick test_truncation;
          Alcotest.test_case "pinned counts per program" `Quick test_pinned_counts;
          Alcotest.test_case "budget bound cuts the search" `Quick test_budget_cuts;
        ] );
      ( "replay",
        [
          Alcotest.test_case "witness replays to same class" `Quick test_witness_replays;
          Alcotest.test_case "script forces the alternative" `Quick
            test_replay_forces_alternative;
          Alcotest.test_case "script round trip" `Quick test_script_roundtrip;
        ] );
      ( "hb",
        [
          Alcotest.test_case "vc concurrency" `Quick test_vc_concurrent;
          Alcotest.test_case "hidden_race witness clocks" `Quick
            test_hidden_race_witness_clocks;
          QCheck_alcotest.to_alcotest prop_clock_condition;
          Alcotest.test_case "ring traces carry no analyzer instants" `Quick
            test_ring_has_no_analyzer_instants;
          Alcotest.test_case "analyzer beats single-run counter" `Quick
            test_analyzer_beats_single_run_counter;
          Alcotest.test_case "clean trace has no findings" `Quick test_analyzer_clean_trace;
          Alcotest.test_case "nc-order on non-commutative reduce" `Quick
            test_analyzer_nc_order;
          Alcotest.test_case "commutative reduce stays silent" `Quick
            test_analyzer_commutative_silent;
          Alcotest.test_case "buffer-reuse window" `Quick test_analyzer_buffer_reuse;
          Alcotest.test_case "missing file is an error" `Quick test_analyzer_missing_file;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "oversize rank count" `Quick test_hostile_rank_count;
          Alcotest.test_case "oversize record length" `Quick test_hostile_record_length;
          Alcotest.test_case "unpaired and early matches" `Quick test_unpaired_matches;
          QCheck_alcotest.to_alcotest prop_hostile_streams;
        ] );
      ( "cost",
        [
          Alcotest.test_case "off hooks allocation-free" `Quick test_off_hooks_are_free;
          Alcotest.test_case "analyzer gate follows the sink" `Quick test_gate_follows_sink;
        ] );
    ]
