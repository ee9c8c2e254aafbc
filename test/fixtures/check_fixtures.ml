(* Intentionally-buggy programs, one per sanitizer check class.

   Each fixture is a small program containing a real bug.  Two modes:

   - default: run once under [--check heavy] and exit 0 only if the
     sanitizer reports the expected violation — so CI proves every check
     class actually fires on the kind of program it was built for, not
     just in unit tests.

       dune exec test/fixtures/check_fixtures.exe -- all
       dune exec test/fixtures/check_fixtures.exe -- deadlock

   - --verify: run the SAME buggy bodies through the bounded
     schedule-space model checker (Explore) at p=2, assert that it
     detects the expected violation class, and that the minimal decision
     trace it emits replays to the same finding — the CI contract of the
     verification plane.

       dune exec test/fixtures/check_fixtures.exe -- --verify all

   The fixtures are independent runs, so both modes check them on a pool
   of domains ([Engine.run_many]) and print the verdicts in the order the
   fixtures were named once every check is done. *)

open Mpisim

(* ---------------- the buggy program bodies ---------------- *)

(* One rank calls barrier, the other allgather: divergent collective order. *)
let collective_body mpi =
  if Comm.rank mpi = 0 then Coll.barrier mpi
  else ignore (Coll.allgather mpi Datatype.int [| 1 |])

(* An isend whose request is never completed: leaked at finalize. *)
let leak_body mpi =
  if Comm.rank mpi = 0 then ignore (P2p.isend mpi Datatype.int ~dest:1 [| 1 |])
  else ignore (P2p.recv mpi Datatype.int ~source:0 ())

(* The same request waited twice: the second wait reads a freed request. *)
let double_wait_body mpi =
  if Comm.rank mpi = 0 then begin
    let req = P2p.isend mpi Datatype.int ~dest:1 [| 1 |] in
    ignore (Request.wait req : Status.t);
    ignore (Request.wait req : Status.t)
  end
  else ignore (P2p.recv mpi Datatype.int ~source:0 ())

(* A send buffer mutated while the synchronous send is still in flight. *)
let send_buffer_body mpi =
  let comm = Kamping.Communicator.of_mpi mpi in
  if Comm.rank mpi = 0 then begin
    let data = [| 1; 2; 3 |] in
    let nb = Kamping.Nb.issend comm Datatype.int ~dest:1 data in
    data.(0) <- 99;
    ignore (Kamping.Nb.wait nb)
  end
  else ignore (P2p.recv mpi Datatype.int ~source:0 ())

(* Classic head-to-head receive deadlock. *)
let deadlock_body mpi =
  let peer = 1 - Comm.rank mpi in
  ignore (P2p.recv mpi Datatype.int ~source:peer ())

(* A wildcard receive with two eligible queued messages. *)
let wildcard_body mpi =
  if Comm.rank mpi = 0 then begin
    P2p.send mpi Datatype.int ~dest:1 ~tag:1 [| 10 |];
    P2p.send mpi Datatype.int ~dest:1 ~tag:2 [| 20 |];
    P2p.send mpi Datatype.int ~dest:1 ~tag:9 [| 0 |]
  end
  else begin
    ignore (P2p.recv mpi Datatype.int ~source:0 ~tag:9 ());
    ignore (P2p.recv mpi Datatype.int ());
    ignore (P2p.recv mpi Datatype.int ())
  end

(* ---------------- single-run mode (sanitizer must fire) ---------------- *)

let run body = Engine.run ~model:Net_model.zero_cost ~check_level:Check.Heavy ~ranks:2 body

(* A check's verdict: [Ok ()], or [Error why] for the error log. *)
let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt

(* Run a buggy [body], expecting a Check_violation of class [cls]. *)
let expect_violation ~cls body =
  match run body with
  | (_ : Engine.report) -> fail "FAIL: expected a %S violation, run succeeded" cls
  | exception Errdefs.Check_violation { check; _ }
  | exception Scheduler.Aborted { exn = Errdefs.Check_violation { check; _ }; _ } ->
      if check = cls then Ok () else fail "FAIL: expected a %S violation, got %S" cls check
  | exception exn ->
      fail "FAIL: expected a %S violation, got %s" cls (Printexc.to_string exn)

let collective_mismatch () = expect_violation ~cls:"collective" collective_body

let request_leak () = expect_violation ~cls:"request-leak" leak_body

let double_wait () = expect_violation ~cls:"double-wait" double_wait_body

let send_buffer () = expect_violation ~cls:"send-buffer" send_buffer_body

(* The deadlock report must name the cycle. *)
let deadlock () =
  match run deadlock_body with
  | (_ : Engine.report) -> fail "FAIL: expected a deadlock, run succeeded"
  | exception Errdefs.Mpi_error { code = Errdefs.Err_deadlock; msg } ->
      let contains needle =
        let nh = String.length msg and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub msg i nn = needle || go (i + 1)) in
        go 0
      in
      if contains "wait-for cycle" && contains "recv(src=" then Ok ()
      else fail "FAIL: deadlock report lacks a named cycle:\n%s" msg
  | exception exn -> fail "FAIL: expected Err_deadlock, got %s" (Printexc.to_string exn)

(* Counted, not raised — the run completes but the race counter must be
   non-zero. *)
let wildcard_race () =
  match run wildcard_body with
  | report ->
      let races = Stats.count (Stats.counter report.Engine.stats "check.wildcard_race") in
      if races >= 1 then Ok () else fail "FAIL: wildcard race not recorded"
  | exception exn -> fail "FAIL: wildcard fixture raised %s" (Printexc.to_string exn)

let fixtures =
  [
    ("collective", collective_mismatch);
    ("leak", request_leak);
    ("double-wait", double_wait);
    ("send-buffer", send_buffer);
    ("deadlock", deadlock);
    ("wildcard", wildcard_race);
  ]

(* ---------------- --verify mode (model checker must detect) ----------- *)

(* Expected violation class per fixture when the schedule space is
   explored.  The wildcard fixture maps to "nondet-match": under lazy
   matching the runtime counter cannot fire (candidates are probed at
   post time, before deferral resolves), but the explorer sees the
   2-candidate decision point directly — that decision IS the race. *)
let verify_fixtures =
  [
    ("collective", collective_body, "collective");
    ("leak", leak_body, "request-leak");
    ("double-wait", double_wait_body, "double-wait");
    ("send-buffer", send_buffer_body, "send-buffer");
    ("deadlock", deadlock_body, "deadlock");
    ("wildcard", wildcard_body, "nondet-match");
  ]

(* [Ok line] for the verdict log, or [Error why] for the error log. *)
let verify_one (name, body, expected) =
  let r = Explore.explore ~ranks:2 body in
  match
    List.find_opt (fun v -> v.Explore.v_class = expected) r.Explore.violations
  with
  | None ->
      fail "FAIL %s: explorer found %s, expected class %S" name
        (String.concat ","
           (List.map (fun v -> v.Explore.v_class) r.Explore.violations))
        expected
  | Some v ->
      (* The witness script must replay to the same finding. *)
      let replayed = Explore.replay ~ranks:2 ~script:v.Explore.v_script body in
      let cls = Explore.replay_class replayed in
      if cls = expected then
        Ok
          (Printf.sprintf "ok   %-12s %d schedule(s), witness '%s' replays to %s" name
             r.Explore.explored
             (Choice.script_to_string v.Explore.v_script)
             cls)
      else
        fail "FAIL %s: witness '%s' replayed to %S, expected %S" name
          (Choice.script_to_string v.Explore.v_script)
          cls expected

let () =
  (* The fixtures print scary sanitizer output on purpose; keep the error
     log quiet so CI output stays readable. *)
  Logs.set_level (Some Logs.App);
  let verify_mode, names =
    match Array.to_list Sys.argv with
    | _ :: "--verify" :: rest ->
        (true, match rest with [] | [ "all" ] -> List.map fst fixtures | _ -> rest)
    | _ :: ([] | [ "all" ]) -> (false, List.map fst fixtures)
    | _ :: rest -> (false, rest)
    | [] -> (false, [])
  in
  (* Each named fixture's check, or [None] for an unknown name.  A check
     returns its stdout verdict line, if any, and on failure the message
     for the error log. *)
  let check name =
    if verify_mode then
      List.find_opt (fun (n, _, _) -> n = name) verify_fixtures
      |> Option.map (fun f () ->
             match verify_one f with
             | Ok line -> (Some line, None)
             | Error msg -> (None, Some msg))
    else
      List.assoc_opt name fixtures
      |> Option.map (fun f () ->
             match f () with
             | Ok () -> (Some ("ok   " ^ name), None)
             | Error msg -> (Some ("FAIL " ^ name), Some msg))
  in
  let checks = List.map check names in
  let verdicts = ref (Engine.run_many (List.filter_map Fun.id checks)) in
  let failed = ref 0 in
  List.iter2
    (fun name check ->
      match check with
      | None ->
          Printf.eprintf "unknown fixture %S (have: %s)\n" name
            (String.concat ", " (List.map fst fixtures));
          incr failed
      | Some _ ->
          let out, err = List.hd !verdicts in
          verdicts := List.tl !verdicts;
          Option.iter
            (fun msg ->
              Printf.eprintf "%s\n%!" msg;
              incr failed)
            err;
          Option.iter (Printf.printf "%s\n%!") out)
    names checks;
  exit (if !failed > 0 then 1 else 0)
