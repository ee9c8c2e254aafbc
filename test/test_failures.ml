(* Failure-injection coverage: every collective must surface
   ERR_PROC_FAILED when a member has failed (ULFM semantics, §V-B), and
   the Named front-end must agree with the labelled-argument API on random
   inputs. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

(* Run a 4-rank program where rank 2 dies first; the others then attempt
   [op] and must observe a failure (or revocation). *)
let check_collective_fails name (op : Comm.t -> unit) () =
  let observed = ref 0 in
  let _, report =
    Engine.run_collect ~ranks:4 (fun comm ->
        if Comm.rank comm = 2 then Fault.die comm
        else begin
          (* Let the victim die first. *)
          Scheduler.park
            ~describe:(fun () -> "awaiting failure")
            ~poll:(fun () ->
              if Runtime.is_failed (Comm.runtime comm) 2 then Some () else None);
          match op comm with
          | () -> ()
          | exception Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ } ->
              incr observed
          | exception Errdefs.Mpi_error { code = Errdefs.Err_revoked; _ } -> incr observed
        end)
  in
  Alcotest.(check (list int)) (name ^ ": victim recorded") [ 2 ] report.Engine.killed;
  Alcotest.(check int) (name ^ ": all survivors observed the failure") 3 !observed

let collective_failure_tests =
  let ops : (string * (Comm.t -> unit)) list =
    [
      ("barrier", fun c -> Coll.barrier c);
      ("bcast", fun c -> ignore (Coll.bcast c Datatype.int ~root:0 (if Comm.rank c = 0 then Some [| 1 |] else None)));
      ("allgather", fun c -> ignore (Coll.allgather c Datatype.int [| 1 |]));
      ( "allgatherv",
        fun c ->
          ignore (Coll.allgatherv c Datatype.int ~recv_counts:(Array.make 4 1) [| 1 |]) );
      ("alltoall", fun c -> ignore (Coll.alltoall c Datatype.int (Array.make 4 1)));
      ("gather", fun c -> ignore (Coll.gather c Datatype.int ~root:0 [| 1 |]));
      ("reduce", fun c -> ignore (Coll.reduce c Datatype.int Reduce_op.int_sum ~root:0 [| 1 |]));
      ( "allreduce",
        fun c -> ignore (Coll.allreduce_single c Datatype.int Reduce_op.int_sum 1) );
      ("scan", fun c -> ignore (Coll.scan_single c Datatype.int Reduce_op.int_sum 1));
      ( "reduce_scatter_block",
        fun c ->
          ignore (Coll.reduce_scatter_block c Datatype.int Reduce_op.int_sum (Array.make 4 1)) );
      ("comm_dup", fun c -> ignore (Comm_ops.dup c));
      ("comm_split", fun c -> ignore (Comm_ops.split c ~color:0 ()));
    ]
  in
  List.map
    (fun (name, op) ->
      Alcotest.test_case ("failure surfaces in " ^ name) `Quick
        (check_collective_fails name op))
    ops

(* Send to a failed rank raises. *)
let test_send_to_failed () =
  let caught = ref false in
  let _, _ =
    Engine.run_collect ~ranks:2 (fun comm ->
        if Comm.rank comm = 1 then Fault.die comm
        else begin
          Scheduler.park
            ~describe:(fun () -> "awaiting failure")
            ~poll:(fun () ->
              if Runtime.is_failed (Comm.runtime comm) 1 then Some () else None);
          match P2p.send comm Datatype.int ~dest:1 [| 1 |] with
          | () -> ()
          | exception Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ } ->
              caught := true
        end)
  in
  Alcotest.(check bool) "send-to-dead raises" true !caught

(* A parked victim of Fault.fail_world_rank is woken and discontinued by
   the scheduler rather than surfacing as a deadlock; its peers observe
   ERR_PROC_FAILED. *)
let test_fail_world_rank_wakes_victim () =
  let caught = ref false in
  let _, report =
    Engine.run_collect ~ranks:3 (fun comm ->
        match Comm.rank comm with
        | 1 ->
            (* Parks forever: rank 2 never sends. *)
            ignore (P2p.recv comm Datatype.int ~source:2 ())
        | 0 ->
            Scheduler.yield ();
            Scheduler.yield ();
            Fault.fail_world_rank (Comm.runtime comm) ~world_rank:1;
            (try ignore (P2p.recv comm Datatype.int ~source:1 ())
             with Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ } ->
               caught := true)
        | _ -> ())
  in
  Alcotest.(check (list int)) "victim discontinued" [ 1 ] report.Engine.killed;
  Alcotest.(check bool) "peer observed the failure" true !caught

(* --- Nonblocking completion over failed peers --- *)

(* wait_any over a mix of a satisfiable and a dead-source request must
   surface the failure instead of spinning. *)
let test_wait_any_failed_peer () =
  let caught = ref false in
  let _, report =
    Engine.run_collect ~ranks:3 (fun comm ->
        match Comm.rank comm with
        | 2 -> Fault.die comm
        | 1 -> ()
        | _ ->
            Scheduler.park
              ~describe:(fun () -> "awaiting failure")
              ~poll:(fun () ->
                if Runtime.is_failed (Comm.runtime comm) 2 then Some () else None);
            let buf1 = Array.make 1 0 and buf2 = Array.make 1 0 in
            let r1 = P2p.irecv_into comm Datatype.int ~source:1 buf1 in
            let r2 = P2p.irecv_into comm Datatype.int ~source:2 buf2 in
            (try ignore (Request.wait_any [ r1; r2 ])
             with Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ } ->
               caught := true))
  in
  Alcotest.(check (list int)) "victim recorded" [ 2 ] report.Engine.killed;
  Alcotest.(check bool) "wait_any surfaced the failure" true !caught

(* Request.test on a receive from a failed peer completes with the error
   rather than returning None forever. *)
let test_test_failed_peer () =
  let caught = ref false in
  let _, _ =
    Engine.run_collect ~ranks:2 (fun comm ->
        if Comm.rank comm = 1 then Fault.die comm
        else begin
          Scheduler.park
            ~describe:(fun () -> "awaiting failure")
            ~poll:(fun () ->
              if Runtime.is_failed (Comm.runtime comm) 1 then Some () else None);
          let req = P2p.irecv_into comm Datatype.int ~source:1 (Array.make 1 0) in
          try ignore (Request.test req)
          with Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ } -> caught := true
        end)
  in
  Alcotest.(check bool) "test surfaced the failure" true !caught

(* Nonblocking collectives: the posted operation must observe the
   failure at wait time on every survivor. *)
let test_nb_collective_failed_peer () =
  let observed = ref 0 in
  let _, report =
    Engine.run_collect ~ranks:4 (fun mpi ->
        if Comm.rank mpi = 2 then Fault.die mpi
        else begin
          Scheduler.park
            ~describe:(fun () -> "awaiting failure")
            ~poll:(fun () ->
              if Runtime.is_failed (Comm.runtime mpi) 2 then Some () else None);
          let comm = Kamping.Communicator.of_mpi mpi in
          let nb = Kamping.Nb_coll.iallreduce comm Datatype.int Reduce_op.int_sum [| 1 |] in
          match Kamping.Nb.wait nb with
          | _ -> ()
          | exception Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ }
          | exception Errdefs.Mpi_error { code = Errdefs.Err_revoked; _ } ->
              incr observed
        end)
  in
  Alcotest.(check (list int)) "victim recorded" [ 2 ] report.Engine.killed;
  Alcotest.(check int) "all survivors observed at wait" 3 !observed

(* --- Every receive form over a source that revokes or dies --- *)

(* Each row is one receive form run on rank 0 from rank 1.  Rank 1 lets
   rank 0 post first, then revokes the communicator or dies without
   sending.  The receive must raise the matching error and never wait
   forever.  A poll loop that gives up reports "spun" instead. *)
exception Spun

let receive_forms : (string * (Comm.t -> unit)) list =
  let buf () = Array.make 4 0 in
  [
    ("recv", fun c -> ignore (P2p.recv c Datatype.int ~source:1 ()));
    ("recv_into", fun c -> ignore (P2p.recv_into c Datatype.int ~source:1 (buf ())));
    ("recv_bytes", fun c -> ignore (P2p.recv_bytes c ~source:1 ()));
    ( "irecv_into + wait",
      fun c -> ignore (Request.wait (P2p.irecv_into c Datatype.int ~source:1 (buf ()))) );
    ( "Nb.irecv + wait",
      fun c ->
        let comm = Kamping.Communicator.of_mpi c in
        ignore (Kamping.Nb.wait (Kamping.Nb.irecv comm Datatype.int ~source:1 ())) );
    ( "recv_init start/wait",
      fun c ->
        let p = P2p.recv_init c Datatype.int ~source:1 (buf ()) in
        Request.start p;
        ignore (Request.wait p) );
    ("probe", fun c -> ignore (P2p.probe c ~source:1 ()));
    ( "iprobe poll loop",
      fun c ->
        let polls = ref 0 in
        while P2p.iprobe c ~source:1 () = None do
          incr polls;
          if !polls >= 10_000 then raise Spun;
          Scheduler.yield ()
        done );
    ( "irecv_into test poll loop",
      fun c ->
        let req = P2p.irecv_into c Datatype.int ~source:1 (buf ()) in
        let polls = ref 0 in
        while Request.test req = None do
          incr polls;
          if !polls >= 10_000 then raise Spun;
          Scheduler.yield ()
        done );
  ]

let source_ends : (string * (Comm.t -> unit) * string) list =
  [
    ("source revokes", Comm.revoke, "ERR_REVOKED");
    ("source is killed", Fault.die, "ERR_PROC_FAILED");
  ]

let check_receive_form ?(ranks = 2) recv source_end expected () =
  let outcomes = Array.make ranks "returned" in
  (match
     Engine.run_collect ~ranks (fun comm ->
         let r = Comm.rank comm in
         if r = 1 then begin
           Scheduler.yield ();
           source_end comm
         end
         else
           match recv comm with
           | () -> ()
           | exception Errdefs.Mpi_error { code; _ } ->
               outcomes.(r) <- Errdefs.code_name code
           | exception Spun -> outcomes.(r) <- "spun")
   with
  | _ -> ()
  | exception Scheduler.Deadlock _ -> Array.fill outcomes 0 ranks "deadlock");
  Array.iteri
    (fun r outcome ->
      if r <> 1 then
        Alcotest.(check string) (Printf.sprintf "rank %d outcome" r) expected outcome)
    outcomes

let receive_form_tests =
  List.concat_map
    (fun (form, recv) ->
      List.map
        (fun (what, source_end, expected) ->
          Alcotest.test_case
            (Printf.sprintf "%s: %s" form what)
            `Quick
            (check_receive_form recv source_end expected))
        source_ends)
    receive_forms

(* The same matrix over the non-blocking barrier, a rendezvous rather
   than a receive: on 3 ranks, ranks 0 and 2 enter it while rank 1
   revokes or dies instead, so the barrier can never complete. *)
let rendezvous_forms : (string * (Comm.t -> unit)) list =
  [
    ("ibarrier + wait", fun c -> ignore (Request.wait (Coll.ibarrier c)));
    ( "ibarrier test poll loop",
      fun c ->
        let req = Coll.ibarrier c in
        let polls = ref 0 in
        while Request.test req = None do
          incr polls;
          if !polls >= 10_000 then raise Spun;
          Scheduler.yield ()
        done );
    ( "Nb_coll.ibarrier + wait",
      fun c -> Kamping.Nb.wait (Kamping.Nb_coll.ibarrier (Kamping.Communicator.of_mpi c)) );
  ]

let rendezvous_form_tests =
  List.concat_map
    (fun (form, enter) ->
      List.map
        (fun (what, source_end, expected) ->
          Alcotest.test_case
            (Printf.sprintf "%s: %s" form what)
            `Quick
            (check_receive_form ~ranks:3 enter source_end expected))
        source_ends)
    rendezvous_forms

(* A clean run through every rendezvous kind — ibarrier, bcast's count,
   window create/free, agree, and shrink and agree after a member dies —
   leaves no rendezvous cell open on any communicator. *)
let test_rendezvous_cells_closed () =
  let results, report =
    Engine.run_collect ~ranks:4 (fun comm ->
        let me = Comm.rank comm in
        ignore (Request.wait (Coll.ibarrier comm));
        let payload = if me = 1 then Some [| 7; 8 |] else None in
        Alcotest.(check (array int))
          "bcast payload" [| 7; 8 |]
          (Coll.bcast comm Datatype.int ~root:1 payload);
        let win = Rma.create comm Datatype.int [| me |] in
        Rma.fence win;
        Rma.free win;
        Alcotest.(check bool) "agree over all" false (Comm_ops.agree comm (me <> 2));
        if me = 3 then Fault.die comm;
        let rt = Comm.runtime comm in
        Scheduler.park
          ~describe:(fun () -> "awaiting failure")
          ~poll:(fun () -> if Runtime.is_failed rt 3 then Some () else None);
        Alcotest.(check bool) "agree over survivors" true (Comm_ops.agree comm true);
        let shrunk = Comm_ops.shrink comm in
        ignore (Request.wait (Coll.ibarrier shrunk));
        Coll.barrier shrunk;
        Hashtbl.fold
          (fun _ s open_cells -> open_cells + Hashtbl.length s.Comm.cells)
          comm.Comm.shared.Comm.comms 0)
  in
  Alcotest.(check (list int)) "rank 3 died" [ 3 ] report.Engine.killed;
  Alcotest.(check (list (option int)))
    "no rendezvous cell left open" [ Some 0; Some 0; Some 0; None ] (Array.to_list results)

(* --- A failure during recovery itself (shrink/agree store-once) --- *)

(* Rank 3 dies first; survivors enter shrink; rank 2 dies while the others
   are mid-recovery.  Without the store-once survivor group, late ranks
   recompute a differing group for the same context and the run dies with
   a usage error; with it, recovery converges over a second round. *)
let test_failure_during_shrink () =
  let final_sizes = ref [] in
  let _, report =
    Engine.run_collect ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        match Comm.rank mpi with
        | 3 -> Fault.die mpi
        | 2 ->
            Scheduler.park
              ~describe:(fun () -> "awaiting first failure")
              ~poll:(fun () ->
                if Runtime.is_failed (Comm.runtime mpi) 3 then Some () else None);
            (* Detect, recover — and die immediately after passing the
               shrink rendezvous, before ranks 0/1 resume from it.  The
               first rank through decides the survivor group {0,1,2};
               late resumers must reuse that decision even though rank 2
               is dead by the time they run (recomputing would give them
               {0,1} for the same context: a group mismatch). *)
            (try Kamping.Communicator.barrier comm
             with Errdefs.Mpi_error _ -> ());
            Kamping.Communicator.revoke comm;
            let _shrunk = Kamping.Communicator.shrink comm in
            Fault.die mpi
        | _ ->
            Scheduler.park
              ~describe:(fun () -> "awaiting first failure")
              ~poll:(fun () ->
                if Runtime.is_failed (Comm.runtime mpi) 3 then Some () else None);
            let _, comm' =
              Kamping_plugins.Ulfm.run_with_recovery ~max_retries:6 comm (fun c ->
                  (* A collective that fails while dead members remain. *)
                  Kamping.Communicator.barrier c)
            in
            final_sizes := Kamping.Communicator.size comm' :: !final_sizes)
  in
  Alcotest.(check bool) "ranks 2 and 3 died" true
    (List.sort compare report.Engine.killed = [ 2; 3 ]);
  Alcotest.(check (list int)) "survivors converged to a 2-rank comm" [ 2; 2 ]
    !final_sizes

(* --- Chaos recovery property (ISSUE 4 acceptance) --- *)

(* Under a random seed and fault plan, sample sort wrapped in a ULFM
   commit protocol must terminate with either a correctly sorted output
   over the surviving ranks or a clean [Mpi_error] — never a deadlock,
   never silent corruption (heavy sanitizer on throughout).

   The protocol is revoke-before-agree: a rank that detects a failure
   revokes the communicator first (waking every peer still parked in the
   sort's receives), then joins the agreement.  All live ranks reach
   [agree] exactly once per round; the store-once agreed value means they
   all commit in the same round or all retry, so nobody can exit while a
   peer still waits for them in the next round's shrink. *)
let prop_chaos_recovery_sort =
  let module C = Kamping.Communicator in
  let module U = Kamping_plugins.Ulfm in
  QCheck.Test.make ~name:"chaos: sort recovers or fails cleanly" ~count:120
    QCheck.(triple (int_range 3 6) (int_bound 100_000) (int_bound 3))
    (fun (p, seed, plan_kind) ->
      let victim = seed mod p in
      let ops = 5 + (seed mod 40) in
      let plan_spec =
        match plan_kind with
        | 0 -> Printf.sprintf "fail=%d@ops:%d" victim ops
        | 1 -> "" (* pure lossy: drops, duplicates, corruption, jitter *)
        | 2 ->
            Printf.sprintf "fail=%d@ops:%d;fail=%d@ops:%d" victim ops
              ((victim + 1) mod p) (ops * 3)
        | _ -> Printf.sprintf "fail=%d@t:%g" victim (float_of_int (1 + (seed mod 100)) *. 1e-5)
      in
      let plan =
        match Fault_plan.parse plan_spec with
        | Ok pl -> pl
        | Error e -> Alcotest.failf "bad generated plan %S: %s" plan_spec e
      in
      let chaos = Chaos.config ~seed ~rates:Chaos.Lossy ~plan ~max_retries:10 () in
      let inputs =
        Array.init p (fun r ->
            Array.init (40 + r) (fun i ->
                Xoshiro.hash_int ~seed ~stream:r ~counter:i ~bound:10_000))
      in
      match
        Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
          ~check_level:Check.Heavy ~chaos ~ranks:p (fun mpi ->
            let r = Comm.rank mpi in
            let rec go comm tries =
              if tries <= 0 then
                Errdefs.mpi_error (Errdefs.Err_other "CHAOS_RETRIES_EXHAUSTED")
                  "chaos recovery: giving up after repeated failures"
              else begin
                let result =
                  try Some (Kamping_plugins.Sorter.sort comm Datatype.int inputs.(r))
                  with U.Failure_detected _ ->
                    (* Revoke before agreeing, so peers parked in the
                       sort's receives wake up and join the agreement. *)
                    if not (U.is_revoked comm) then U.revoke comm;
                    None
                in
                (* Contribute success only if the communicator is still
                   intact: a completed sort on a comm that has since lost
                   a member must not be committed, because the dead
                   member held part of the output. *)
                let intact = not (Comm.any_member_failed (C.mpi comm)) in
                let ok = U.agree comm (result <> None && intact) in
                match result with
                | Some v when ok -> v
                | _ ->
                    if not (U.is_revoked comm) then U.revoke comm;
                    go (U.shrink comm) (tries - 1)
              end
            in
            go (C.of_mpi mpi) (p + 3))
      with
      | results, report ->
          let survivors =
            List.filter (fun r -> not (List.mem r report.Engine.killed)) (List.init p Fun.id)
          in
          let out =
            Array.concat
              (List.map
                 (fun r ->
                   match results.(r) with
                   | Some a -> a
                   | None -> Alcotest.failf "survivor %d has no result" r)
                 survivors)
          in
          let sorted_list rs =
            List.sort compare (List.concat_map (fun r -> Array.to_list inputs.(r)) rs)
          in
          (* Multiset difference of sorted lists: [big - small], or [None]
             when [small] is not contained in [big]. *)
          let rec diff big small =
            match (big, small) with
            | rest, [] -> Some rest
            | [], _ :: _ -> None
            | b :: bs, s :: ss ->
                if b = s then diff bs ss
                else if b < s then Option.map (fun r -> b :: r) (diff bs (s :: ss))
                else None
          in
          let out_l = List.sort compare (Array.to_list out) in
          (* Globally sorted: the rank-order concatenation is already
             non-decreasing. *)
          Array.to_list out = out_l
          (* No silent corruption: every output element is traceable to
             some rank's input, multiset-wise — nothing invented, nothing
             duplicated.  (Data *loss* is permitted only when a rank
             died: a one-phase commit cannot save the output bucket of a
             victim that dies after the agreement — that data dies with
             it.) *)
          && diff (sorted_list (List.init p Fun.id)) out_l <> None
          (* When nobody died, the result must be exact: the union of all
             inputs, fully sorted. *)
          && (report.Engine.killed <> [] || out_l = sorted_list (List.init p Fun.id))
      | exception Scheduler.Aborted { exn = Errdefs.Mpi_error { code; _ }; _ }
        when code <> Errdefs.Err_deadlock ->
          true (* a clean, typed failure is an acceptable outcome *)
      | exception Errdefs.Mpi_error { code; _ } when code <> Errdefs.Err_deadlock -> true)

(* --- Named front-end equivalence --- *)

let prop_named_equals_labelled_allgatherv =
  QCheck.Test.make ~name:"Named.allgatherv = Collectives.allgatherv" ~count:40
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let r = Comm.rank mpi in
            let len = Xoshiro.hash_int ~seed ~stream:2 ~counter:r ~bound:5 in
            let v = Array.init len (fun i -> (r * 100) + i) in
            let labelled = Kamping.Collectives.allgatherv comm Datatype.int v in
            let named =
              Kamping.Named.(extract_recv_buf (allgatherv comm Datatype.int [ send_buf v ]))
            in
            labelled = named)
      in
      Array.for_all Fun.id results)

let prop_named_equals_labelled_alltoallv =
  QCheck.Test.make ~name:"Named.alltoallv = Collectives.alltoallv" ~count:40
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let r = Comm.rank mpi in
            let counts = Array.init p (fun d -> (seed + r + d) mod 3) in
            let data =
              Array.concat (List.init p (fun d -> Array.make counts.(d) ((r * 10) + d)))
            in
            let labelled =
              Kamping.Collectives.alltoallv comm Datatype.int ~send_counts:counts data
            in
            let named =
              Kamping.Named.(
                extract_recv_buf
                  (alltoallv comm Datatype.int [ send_buf data; send_counts counts ]))
            in
            labelled = named)
      in
      Array.for_all Fun.id results)

(* Every Named operation against its labelled call on p <= 9 ranks, under
   the heavy sanitizer: parameters in a random order per rank, a random
   subset of the optional ones (send_count, counts and displacements
   given or inferred, the _out parameters, recv_buf under each resize
   policy).  Each call must return the labelled result, out-parameters
   equal to the counts and displacements the inference computes, and
   issue the same profiled calls. *)

type named_outcome = {
  buf : int array;
  counts : int array option;
  displs : int array option;
  vec_ok : bool;  (* the recv_buf vec holds [buf] under its policy *)
}

let shuffle ~seed ~r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Xoshiro.hash_int ~seed ~stream:(100 + r) ~counter:i ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let prop_named_matches_labelled =
  QCheck.Test.make ~name:"Named = labelled: any order, optional and out parameters"
    ~count:120
    QCheck.(triple (int_range 1 9) (int_range 0 6) (int_bound 1_000_000))
    (fun (p, which, seed) ->
      (* QCheck's int shrinker can step below the range's lower bound. *)
      QCheck.assume (p >= 1);
      let draw stream counter bound = Xoshiro.hash_int ~seed ~stream ~counter ~bound in
      let flag k = draw 0 k 2 = 1 in
      let policy =
        Kamping.Resize_policy.(
          match draw 1 0 3 with 0 -> Resize_to_fit | 1 -> Grow_only | _ -> No_resize)
      in
      let init_len r =
        draw 2 r 40 + if policy = Kamping.Resize_policy.No_resize then 40 else 0
      in
      let opt b x = if b then [ x ] else [] in
      let some_if b x = if b then Some x else None in
      (* Run [named] and [labelled] on every rank; [named] gets the
         optional recv_buf parameter and its vec, and the outcome is
         checked against [labelled]'s buffer and [counts]/[displs]. *)
      let check ~named ~labelled ~counts ~displs =
        let run body =
          Engine.run_collect ~model:Net_model.zero_cost ~check_level:Check.Heavy ~ranks:p
            (fun mpi -> body (Kamping.Communicator.of_mpi mpi) (Comm.rank mpi))
        in
        let with_vec = flag 9 in
        let named_values, named_report =
          run (fun comm r ->
              let vec = Kamping.Vec.of_array (Array.make (init_len r) (-1)) in
              let res : int Kamping.Named.result =
                named comm r
                  (opt with_vec (Kamping.Named.recv_buf ~policy vec))
              in
              let buf, counts, displs = Kamping.Named.decompose res in
              let vec_ok =
                (not with_vec)
                ||
                let n = Array.length buf and init = init_len r in
                let len =
                  Kamping.Resize_policy.(
                    match policy with
                    | Resize_to_fit -> n
                    | Grow_only -> max init n
                    | No_resize -> init)
                in
                Kamping.Vec.length vec = len
                && Array.sub (Kamping.Vec.to_array vec) 0 n = buf
              in
              { buf; counts; displs; vec_ok })
        in
        let labelled_values, labelled_report = run labelled in
        named_report.Engine.profile = labelled_report.Engine.profile
        && Array.for_all Fun.id
             (Array.init p (fun r ->
                  match (named_values.(r), labelled_values.(r)) with
                  | Some o, Some l ->
                      o.buf = l && o.vec_ok && o.counts = counts r && o.displs = displs r
                  | _ -> false))
      in
      let mix r l = shuffle ~seed ~r l in
      match which with
      | 0 ->
          (* allgatherv: rank r sends len r ints, followed by pad r unsent
             ones when send_count is passed. *)
          let len r = draw 3 r 5 and pad r = draw 4 r 3 in
          let with_count = flag 1 and given_c = flag 2 and given_d = flag 3 in
          let c_out = flag 4 and d_out = flag 5 in
          let all_counts = Array.init p len in
          let all_displs = Kamping.Collectives.exclusive_prefix_sum all_counts in
          let v r =
            Array.init (len r + if with_count then pad r else 0) (fun i -> (r * 100) + i)
          in
          check
            ~named:(fun comm r ps ->
              Kamping.Named.(
                allgatherv comm Datatype.int
                  (mix r
                     (ps
                     @ [ send_buf (v r) ]
                     @ opt with_count (send_count (len r))
                     @ opt given_c (recv_counts all_counts)
                     @ opt given_d (recv_displs all_displs)
                     @ opt c_out (recv_counts_out ())
                     @ opt d_out (recv_displs_out ())))))
            ~labelled:(fun comm r ->
              Kamping.Collectives.allgatherv comm Datatype.int
                ?send_count:(some_if with_count (len r))
                ?recv_counts:(some_if given_c all_counts)
                ?recv_displs:(some_if given_d all_displs)
                (v r))
            ~counts:(fun _ -> some_if c_out all_counts)
            ~displs:(fun _ -> some_if d_out all_displs)
      | 1 ->
          (* alltoallv: rank s sends sc s d ints to rank d. *)
          let sc s d = draw 3 ((s * p) + d) 3 in
          let given_sd = flag 1 and given_c = flag 2 and given_d = flag 3 in
          let c_out = flag 4 and d_out = flag 5 in
          let send_counts_of s = Array.init p (sc s) in
          let recv_counts_of r = Array.init p (fun s -> sc s r) in
          let data s =
            Array.concat (List.init p (fun d -> Array.make (sc s d) ((s * 10) + d)))
          in
          let sd s = Kamping.Collectives.exclusive_prefix_sum (send_counts_of s) in
          let rd r = Kamping.Collectives.exclusive_prefix_sum (recv_counts_of r) in
          check
            ~named:(fun comm r ps ->
              Kamping.Named.(
                alltoallv comm Datatype.int
                  (mix r
                     (ps
                     @ [ send_buf (data r); send_counts (send_counts_of r) ]
                     @ opt given_sd (send_displs (sd r))
                     @ opt given_c (recv_counts (recv_counts_of r))
                     @ opt given_d (recv_displs (rd r))
                     @ opt c_out (recv_counts_out ())
                     @ opt d_out (recv_displs_out ())))))
            ~labelled:(fun comm r ->
              Kamping.Collectives.alltoallv comm Datatype.int
                ~send_counts:(send_counts_of r)
                ?send_displs:(some_if given_sd (sd r))
                ?recv_counts:(some_if given_c (recv_counts_of r))
                ?recv_displs:(some_if given_d (rd r))
                (data r))
            ~counts:(fun r -> some_if c_out (recv_counts_of r))
            ~displs:(fun r -> some_if d_out (rd r))
      | 2 ->
          (* gatherv: only the root receives counts; elsewhere the inferred
             counts are the (empty) result of the count gather. *)
          let rt = draw 3 0 p and len r = draw 4 r 4 in
          let given_c = flag 2 and c_out = flag 4 in
          let all_counts = Array.init p len in
          let v r = Array.init (len r) (fun i -> (r * 100) + i) in
          check
            ~named:(fun comm r ps ->
              Kamping.Named.(
                gatherv comm Datatype.int
                  (mix r
                     (ps
                     @ [ send_buf (v r); root rt ]
                     @ opt given_c (recv_counts all_counts)
                     @ opt c_out (recv_counts_out ())))))
            ~labelled:(fun comm r ->
              Kamping.Collectives.gatherv comm Datatype.int ~root:rt
                ?recv_counts:(some_if given_c all_counts) (v r))
            ~counts:(fun r ->
              some_if c_out (if r = rt || given_c then all_counts else [||]))
            ~displs:(fun _ -> None)
      | 3 ->
          let rt = draw 3 0 p and len = draw 4 0 5 in
          let data = Array.init len (fun i -> i * 7) in
          check
            ~named:(fun comm r ps ->
              Kamping.Named.(
                bcast comm Datatype.int
                  (mix r (ps @ [ root rt ] @ opt (r = rt) (send_buf data)))))
            ~labelled:(fun comm r ->
              Kamping.Collectives.bcast comm Datatype.int ~root:rt
                ?data:(some_if (r = rt) data) ())
            ~counts:(fun _ -> None) ~displs:(fun _ -> None)
      | 4 ->
          let len = 1 + draw 3 0 5 in
          let o =
            match draw 4 0 3 with
            | 0 -> Reduce_op.int_sum
            | 1 -> Reduce_op.int_max
            | _ -> Reduce_op.int_min
          in
          let v r = Array.init len (fun i -> draw 5 ((r * len) + i) 1000) in
          check
            ~named:(fun comm r ps ->
              Kamping.Named.(
                allreduce comm Datatype.int (mix r (ps @ [ send_buf (v r); op o ]))))
            ~labelled:(fun comm r ->
              Kamping.Collectives.allreduce comm Datatype.int o (v r))
            ~counts:(fun _ -> None) ~displs:(fun _ -> None)
      | _ ->
          (* allgather, by value (which = 5) or in place (which = 6). *)
          let k = 1 + draw 3 0 3 and in_place = which = 6 in
          let mine r = Array.init k (fun i -> (r * 10) + i) in
          let slots r =
            Array.init (p * k) (fun i -> if i / k = r then (r * 10) + (i mod k) else 0)
          in
          check
            ~named:(fun comm r ps ->
              Kamping.Named.(
                allgather comm Datatype.int
                  (mix r
                     (ps
                     @ [
                         (if in_place then send_recv_buf (slots r)
                          else send_buf (mine r));
                       ]))))
            ~labelled:(fun comm r ->
              if in_place then
                Kamping.Collectives.allgather_inplace comm Datatype.int (slots r)
              else Kamping.Collectives.allgather comm Datatype.int (mine r))
            ~counts:(fun _ -> None) ~displs:(fun _ -> None))

(* --- RMA accumulate property --- *)

let prop_rma_accumulate_sums =
  QCheck.Test.make ~name:"RMA accumulate totals are exact" ~count:30
    QCheck.(pair (int_range 2 8) (int_bound 10000))
    (fun (p, seed) ->
      let contributions r = Xoshiro.hash_int ~seed ~stream:r ~counter:0 ~bound:100 in
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let win = Rma.create comm Datatype.int (Array.make 1 0) in
            let r = Comm.rank comm in
            Rma.accumulate win ~target:(r mod 2) ~target_pos:0 Reduce_op.int_sum
              [| contributions r |];
            Rma.fence win;
            let v = (Rma.local win).(0) in
            Rma.free win;
            v)
      in
      let expected target =
        List.fold_left
          (fun acc r -> if r mod 2 = target then acc + contributions r else acc)
          0 (List.init p Fun.id)
      in
      results.(0) = expected 0 && results.(1) = expected 1)

let tests =
  collective_failure_tests @ receive_form_tests @ rendezvous_form_tests
  @ [
      Alcotest.test_case "rendezvous cells closed after a clean run" `Quick
        test_rendezvous_cells_closed;
      Alcotest.test_case "send to failed" `Quick test_send_to_failed;
      Alcotest.test_case "fail_world_rank wakes parked victim" `Quick
        test_fail_world_rank_wakes_victim;
      Alcotest.test_case "wait_any over failed peer" `Quick test_wait_any_failed_peer;
      Alcotest.test_case "test over failed peer" `Quick test_test_failed_peer;
      Alcotest.test_case "nonblocking collective over failed peer" `Quick
        test_nb_collective_failed_peer;
      Alcotest.test_case "failure during shrink (store-once recovery)" `Quick
        test_failure_during_shrink;
      qtest prop_chaos_recovery_sort;
      qtest prop_named_equals_labelled_allgatherv;
      qtest prop_named_equals_labelled_alltoallv;
      qtest prop_named_matches_labelled;
      qtest prop_rma_accumulate_sums;
    ]

let () = Alcotest.run "failures" [ ("failures", tests) ]
