(* Tests for persistent operations (MPI-4 *_init / start / wait):
   request lifecycle, per-cycle buffer semantics, the equivalence of a
   persistent request started N times with N ad-hoc calls — including
   identical [coll.algo.*] counter attribution, since the frozen
   selection must match what every ad-hoc call would pick — and the
   zero-allocation guarantee of the single-rank start/wait cycle. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Point-to-point cycle: each start injects the buffer's current
   contents; each wait unpacks the matched message. *)

let test_send_recv_cycle () =
  let cycles = 5 in
  let results =
    Engine.run_values ~model:Net_model.zero_cost ~ranks:2 (fun comm ->
        if Comm.rank comm = 0 then begin
          let buf = Array.make 4 0 in
          let req = P2p.send_init comm Datatype.int ~dest:1 buf ~pos:0 ~count:4 in
          for c = 1 to cycles do
            Array.iteri (fun i _ -> buf.(i) <- (c * 10) + i) buf;
            Request.start req;
            ignore (Request.wait req)
          done;
          Request.free req;
          [||]
        end
        else begin
          let into = Array.make 4 (-1) in
          let req = P2p.recv_init comm Datatype.int ~source:0 into in
          let seen = Array.make (cycles * 4) 0 in
          for c = 1 to cycles do
            Request.start req;
            ignore (Request.wait req);
            Array.blit into 0 seen ((c - 1) * 4) 4
          done;
          Request.free req;
          seen
        end)
  in
  let expected = Array.init (5 * 4) (fun i -> (((i / 4) + 1) * 10) + (i mod 4)) in
  Alcotest.(check (array int)) "each cycle carries the fresh buffer" expected results.(1)

(* ------------------------------------------------------------------ *)
(* Lifecycle state machine *)

let test_lifecycle_errors () =
  let expect_usage name body =
    try
      ignore (Engine.run ~model:Net_model.zero_cost ~ranks:1 body);
      Alcotest.fail (name ^ ": expected Usage_error")
    with Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> ()
  in
  let fresh comm =
    let src = [| 1 |] and dst = [| 0 |] in
    Coll.allreduce_init comm Datatype.int Reduce_op.int_sum ~src ~dst
  in
  expect_usage "double start" (fun comm ->
      let req = P2p.send_init comm Datatype.int ~dest:0 [| 1 |] ~pos:0 ~count:1 in
      Request.start req;
      Request.start req);
  expect_usage "free while active" (fun comm ->
      let req = P2p.send_init comm Datatype.int ~dest:0 [| 1 |] ~pos:0 ~count:1 in
      Request.start req;
      Request.free req);
  expect_usage "start after free" (fun comm ->
      let req = fresh comm in
      Request.free req;
      Request.start req);
  expect_usage "double free" (fun comm ->
      let req = fresh comm in
      Request.free req;
      Request.free req)

let test_inactive_noops () =
  let report =
    Engine.run ~model:Net_model.zero_cost ~ranks:1 (fun comm ->
        let src = [| 7 |] and dst = [| 0 |] in
        let req = Coll.allreduce_init comm Datatype.int Reduce_op.int_sum ~src ~dst in
        (* wait/test on an inactive request return at once, as in MPI *)
        ignore (Request.wait req);
        if Request.test req = None then failwith "test on inactive must complete";
        if not (Request.is_complete req) then failwith "never started";
        Request.start req;
        ignore (Request.wait req);
        if dst.(0) <> 7 then failwith "cycle result";
        Request.free req)
  in
  (* Each cycle is one profiled allreduce call: one start, one entry. *)
  Alcotest.(check (list (triple string int int)))
    "one cycle recorded" [ ("allreduce", 1, 8) ]
    (List.filter (fun (op, _, _) -> op = "allreduce") report.Engine.profile)

(* ------------------------------------------------------------------ *)
(* Equivalence property: a persistent request started N times produces
   byte-identical results and identical [coll.algo.*] attribution vs N
   ad-hoc calls — for non-power-of-two rank counts and non-commutative
   operators, under the heavy sanitizer (which additionally checks the
   cross-rank collective schedules of both runs). *)

let data_for ~seed ~rank ~len =
  Array.init len (fun i -> Xoshiro.hash_int ~seed ~stream:rank ~counter:i ~bound:1000 - 500)

let algo_counters report =
  let acc = ref [] in
  Stats.iter_counters report.Engine.stats (fun name c ->
      if String.starts_with ~prefix:"coll.algo." name then acc := (name, Stats.count c) :: !acc);
  List.rev !acc

let reduce_op_for ~commutative =
  if commutative then Reduce_op.int_sum
  else Reduce_op.custom ~commutative:false ~name:"lsub" (fun a b -> a - b)

(* Both variants mutate [src] the same deterministic way each cycle and
   concatenate every cycle's result. *)
let allreduce_variants ~p ~seed ~elems ~cycles ~commutative =
  let body_adhoc comm =
    let r = Comm.rank comm in
    let op = reduce_op_for ~commutative in
    let src = data_for ~seed ~rank:r ~len:elems in
    let out = Array.make (cycles * elems) 0 in
    for c = 1 to cycles do
      src.(0) <- src.(0) + c;
      let res = Coll.allreduce comm Datatype.int op src in
      Array.blit res 0 out ((c - 1) * elems) elems
    done;
    out
  in
  let body_persistent comm =
    let r = Comm.rank comm in
    let op = reduce_op_for ~commutative in
    let src = data_for ~seed ~rank:r ~len:elems in
    let dst = Array.make elems 0 in
    let req = Coll.allreduce_init comm Datatype.int op ~src ~dst in
    let out = Array.make (cycles * elems) 0 in
    for c = 1 to cycles do
      src.(0) <- src.(0) + c;
      Request.start req;
      ignore (Request.wait req);
      Array.blit dst 0 out ((c - 1) * elems) elems
    done;
    Request.free req;
    out
  in
  let run body =
    Engine.run_collect ~model:Net_model.zero_cost ~check_level:Check.Heavy ~ranks:p body
  in
  (run body_adhoc, run body_persistent)

let prop_persistent_allreduce_equals_adhoc =
  QCheck.Test.make ~name:"persistent allreduce = N ad-hoc calls" ~count:30
    QCheck.(
      quad (Arb.ranks 2 7) (int_bound 1_000_000) (int_range 1 48) (pair (int_range 1 4) bool))
    (fun (p, seed, elems, (cycles, commutative)) ->
      let (adhoc, rep_a), (pers, rep_p) =
        allreduce_variants ~p ~seed ~elems ~cycles ~commutative
      in
      Array.for_all2 (fun a b -> a = b) adhoc pers
      && algo_counters rep_a = algo_counters rep_p)

let prop_persistent_bcast_equals_adhoc =
  QCheck.Test.make ~name:"persistent bcast = N ad-hoc calls" ~count:30
    QCheck.(triple (Arb.ranks 2 7) (int_bound 1_000_000) (int_range 1 48))
    (fun (p, seed, elems) ->
      let cycles = 3 in
      let root = seed mod p in
      let run body =
        Engine.run_collect ~model:Net_model.zero_cost ~check_level:Check.Heavy ~ranks:p body
      in
      let adhoc, rep_a =
        run (fun comm ->
            let r = Comm.rank comm in
            let out = Array.make (cycles * elems) 0 in
            for c = 1 to cycles do
              let data =
                if r = root then Some (data_for ~seed:(seed + c) ~rank:root ~len:elems)
                else None
              in
              let res = Coll.bcast comm Datatype.int ~root data in
              Array.blit res 0 out ((c - 1) * elems) elems
            done;
            out)
      in
      let pers, rep_p =
        run (fun comm ->
            let r = Comm.rank comm in
            let buf = Array.make elems 0 in
            let req = Coll.bcast_init comm Datatype.int ~root buf in
            let out = Array.make (cycles * elems) 0 in
            for c = 1 to cycles do
              if r = root then
                Array.blit (data_for ~seed:(seed + c) ~rank:root ~len:elems) 0 buf 0 elems;
              Request.start req;
              ignore (Request.wait req);
              Array.blit buf 0 out ((c - 1) * elems) elems
            done;
            Request.free req;
            out)
      in
      Array.for_all2 (fun a b -> a = b) adhoc pers
      && algo_counters rep_a = algo_counters rep_p)

let prop_persistent_reduce_scatter_equals_adhoc =
  QCheck.Test.make ~name:"persistent reduce_scatter = N ad-hoc calls" ~count:30
    QCheck.(triple (Arb.ranks 2 7) (int_bound 1_000_000) (pair (int_range 0 5) bool))
    (fun (p, seed, (extra, commutative)) ->
      let cycles = 3 in
      (* uneven counts, some possibly zero *)
      let recv_counts =
        Array.init p (fun r -> Xoshiro.hash_int ~seed ~stream:91 ~counter:r ~bound:(extra + 2))
      in
      let total = Array.fold_left ( + ) 0 recv_counts in
      QCheck.assume (total > 0);
      let run body =
        Engine.run_collect ~model:Net_model.zero_cost ~check_level:Check.Heavy ~ranks:p body
      in
      let adhoc, rep_a =
        run (fun comm ->
            let r = Comm.rank comm in
            let op = reduce_op_for ~commutative in
            let src = data_for ~seed ~rank:r ~len:total in
            let mine = recv_counts.(r) in
            let out = Array.make (cycles * mine) 0 in
            for c = 1 to cycles do
              src.(0) <- src.(0) + c;
              let res = Coll.reduce_scatter comm Datatype.int op ~recv_counts src in
              Array.blit res 0 out ((c - 1) * mine) mine
            done;
            out)
      in
      let pers, rep_p =
        run (fun comm ->
            let r = Comm.rank comm in
            let op = reduce_op_for ~commutative in
            let src = data_for ~seed ~rank:r ~len:total in
            let mine = recv_counts.(r) in
            let dst = Array.make mine 0 in
            let req =
              Coll.reduce_scatter_init comm Datatype.int op ~recv_counts ~src ~dst
            in
            let out = Array.make (cycles * mine) 0 in
            for c = 1 to cycles do
              src.(0) <- src.(0) + c;
              Request.start req;
              ignore (Request.wait req);
              Array.blit dst 0 out ((c - 1) * mine) mine
            done;
            Request.free req;
            out)
      in
      Array.for_all2
        (fun a b -> a = b)
        (Array.concat (Array.to_list (Array.map (Option.value ~default:[||]) adhoc)))
        (Array.concat (Array.to_list (Array.map (Option.value ~default:[||]) pers)))
      && algo_counters rep_a = algo_counters rep_p)

(* ------------------------------------------------------------------ *)
(* The zero-allocation guarantee: on one rank (no transport) the
   start/wait cycle must not allocate at all. *)

let test_single_rank_cycle_allocation_free () =
  ignore
    (Engine.run ~model:Net_model.zero_cost ~clock_mode:Runtime.Virtual_only ~ranks:1
       (fun comm ->
         let src = Array.init 256 (fun i -> i) in
         let dst = Array.make 256 0 in
         let req = Coll.allreduce_init comm Datatype.int Reduce_op.int_sum ~src ~dst in
         for _ = 1 to 10 do
           Request.start req;
           ignore (Request.wait req)
         done;
         let w0 = Gc.minor_words () in
         for _ = 1 to 10_000 do
           Request.start req;
           ignore (Request.wait req)
         done;
         let words = Gc.minor_words () -. w0 in
         Request.free req;
         if words >= 100. then
           failwith (Printf.sprintf "start/wait allocated %.0f minor words/10k cycles" words)))

(* Multi-rank cycles allocate in transport, but must still allocate less
   than ad-hoc calls (which additionally rebuild working buffers and
   re-run selection every call). *)

let test_multi_rank_cycle_allocates_less () =
  let words_of body =
    let w0 = Gc.minor_words () in
    ignore (Engine.run ~model:Net_model.zero_cost ~clock_mode:Runtime.Virtual_only ~ranks:4 body);
    Gc.minor_words () -. w0
  in
  let elems = 2048 and cycles = 50 in
  let adhoc =
    words_of (fun comm ->
        let r = Comm.rank comm in
        let src = Array.init elems (fun i -> r + i) in
        for _ = 1 to cycles do
          ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum src)
        done)
  in
  let persistent =
    words_of (fun comm ->
        let r = Comm.rank comm in
        let src = Array.init elems (fun i -> r + i) in
        let dst = Array.make elems 0 in
        let req = Coll.allreduce_init comm Datatype.int Reduce_op.int_sum ~src ~dst in
        for _ = 1 to cycles do
          Request.start req;
          ignore (Request.wait req)
        done;
        Request.free req)
  in
  Alcotest.(check bool)
    (Printf.sprintf "persistent %.0f < ad-hoc %.0f minor words" persistent adhoc)
    true (persistent < adhoc)

(* ------------------------------------------------------------------ *)
(* The kamping binding surface *)

let test_kamping_persistent () =
  let results =
    Engine.run_values ~model:Net_model.zero_cost ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Kamping.Communicator.rank comm in
        let src = [| r + 1; r + 1 |] and dst = [| 0; 0 |] in
        let req = Kamping.Persistent.allreduce_init comm Datatype.int Reduce_op.int_sum ~src ~dst in
        Request.start req;
        ignore (Request.wait req);
        let rs_dst = [| 0 |] in
        let rs =
          Kamping.Persistent.reduce_scatter_init comm Datatype.int Reduce_op.int_sum
            ~src:[| r; r; r; r |] ~dst:rs_dst ()
        in
        Request.start rs;
        ignore (Request.wait rs);
        Request.free rs;
        Request.free req;
        (dst.(0), rs_dst.(0)))
  in
  Array.iter
    (fun (allred, rs) ->
      Alcotest.(check int) "allreduce sum" 10 allred;
      Alcotest.(check int) "reduce_scatter block" 6 rs)
    results

(* Without [recv_counts], the persistent reduce-scatter splits [src] like
   the blocking call: 10 elements on 4 ranks go out as 3, 3, 2, 2. *)
let test_kamping_reduce_scatter_init_uneven () =
  let results =
    Engine.run_values ~model:Net_model.zero_cost ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Kamping.Communicator.rank comm in
        let src = Array.init 10 (fun i -> (r * 10) + i) in
        let sum = Reduce_op.int_sum in
        let blocking = Kamping.Collectives.reduce_scatter comm Datatype.int sum src in
        let dst = Array.make (Array.length blocking) 0 in
        let req =
          Kamping.Persistent.reduce_scatter_init comm Datatype.int sum ~src ~dst ()
        in
        Request.start req;
        ignore (Request.wait req);
        Request.free req;
        (blocking, dst))
  in
  Array.iteri
    (fun r (blocking, persistent) ->
      Alcotest.(check int) (Printf.sprintf "rank %d block" r) (if r < 2 then 3 else 2)
        (Array.length blocking);
      Alcotest.(check (array int)) (Printf.sprintf "rank %d result" r) blocking persistent)
    results

(* ------------------------------------------------------------------ *)
(* Regression: a fault-plan kill landing between [Request.start] and
   [Request.wait] of a persistent receive must surface ERR_PROC_FAILED
   out of [wait], not hang the parked fiber.  Rank 0 completes one cycle
   (proving the request works), then its second send hits a
   [fail=0@ops:2] trigger and it dies without injecting; rank 1 is
   already parked in its second [wait]. *)

let test_kill_between_start_and_wait () =
  let plan = Result.get_ok (Fault_plan.parse "fail=0@ops:2") in
  let outcomes =
    Engine.run_collect ~model:Net_model.ethernet ~clock_mode:Runtime.Virtual_only
      ~check_level:Check.Heavy
      ~chaos:(Chaos.config ~plan ())
      ~ranks:2
      (fun comm ->
        if Comm.rank comm = 0 then begin
          let buf = [| 7; 8; 9 |] in
          for _c = 1 to 2 do
            P2p.send comm Datatype.int ~dest:1 buf
          done;
          `Sender
        end
        else begin
          let into = Array.make 3 (-1) in
          let req = P2p.recv_init comm Datatype.int ~source:0 into in
          Request.start req;
          ignore (Request.wait req);
          Alcotest.(check (array int)) "first cycle delivered" [| 7; 8; 9 |] into;
          Request.start req;
          match Request.wait req with
          | _ -> `Completed
          | exception Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ } ->
              `Saw_proc_failed
        end)
  in
  let results, report = outcomes in
  Alcotest.(check (list int)) "rank 0 died on its second op" [ 0 ] report.Engine.killed;
  match results.(1) with
  | Some `Saw_proc_failed -> ()
  | Some `Completed -> Alcotest.fail "wait completed against a dead source"
  | Some `Sender | None -> Alcotest.fail "receiver produced no outcome"

let tests =
  [
    Alcotest.test_case "send/recv cycle" `Quick test_send_recv_cycle;
    Alcotest.test_case "kill between start and wait raises" `Quick
      test_kill_between_start_and_wait;
    Alcotest.test_case "lifecycle errors" `Quick test_lifecycle_errors;
    Alcotest.test_case "inactive wait/test no-ops" `Quick test_inactive_noops;
    Alcotest.test_case "single-rank cycle allocation-free" `Quick
      test_single_rank_cycle_allocation_free;
    Alcotest.test_case "multi-rank cycle allocates less" `Quick
      test_multi_rank_cycle_allocates_less;
    Alcotest.test_case "kamping persistent surface" `Quick test_kamping_persistent;
    Alcotest.test_case "kamping reduce_scatter_init uneven split" `Quick
      test_kamping_reduce_scatter_init_uneven;
    qtest prop_persistent_allreduce_equals_adhoc;
    qtest prop_persistent_bcast_equals_adhoc;
    qtest prop_persistent_reduce_scatter_equals_adhoc;
  ]

let () = Alcotest.run "persistent" [ ("persistent", tests) ]
