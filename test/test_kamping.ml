(* Tests for the binding layer itself: default-parameter computation,
   result objects, resize policies, ownership-safe non-blocking results,
   request pools, flatten, serialization operations, and the profiling
   guarantee that only expected underlying calls are issued (§III-H). *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

(* --- default parameter computation equals explicit parameters --- *)

let prop_inferred_equals_explicit_allgatherv =
  QCheck.Test.make ~name:"allgatherv: inferred = explicit" ~count:50
    QCheck.(pair (Arb.ranks 1 8) (int_bound 10000))
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let r = Comm.rank mpi in
            let len = Xoshiro.hash_int ~seed ~stream:1 ~counter:r ~bound:5 in
            let v = Array.init len (fun i -> (r * 100) + i) in
            let inferred = Kamping.Collectives.allgatherv comm Datatype.int v in
            let counts = Kamping.Collectives.allgather comm Datatype.int [| len |] in
            let displs = Kamping.Collectives.exclusive_prefix_sum counts in
            let explicit =
              Kamping.Collectives.allgatherv comm Datatype.int ~recv_counts:counts
                ~recv_displs:displs v
            in
            inferred = explicit)
      in
      Array.for_all Fun.id results)

let prop_inferred_equals_explicit_alltoallv =
  QCheck.Test.make ~name:"alltoallv: inferred = explicit" ~count:50
    QCheck.(pair (Arb.ranks 1 8) (int_bound 10000))
    (fun (p, seed) ->
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let r = Comm.rank mpi in
            let send_counts = Array.init p (fun d -> (seed + r + d) mod 3) in
            let data =
              Array.concat
                (List.init p (fun d -> Array.make send_counts.(d) ((r * 100) + d)))
            in
            let inferred = Kamping.Collectives.alltoallv comm Datatype.int ~send_counts data in
            let recv_counts = Kamping.Collectives.alltoall comm Datatype.int send_counts in
            let explicit =
              Kamping.Collectives.alltoallv comm Datatype.int ~send_counts ~recv_counts data
            in
            inferred = explicit)
      in
      Array.for_all Fun.id results)

(* --- result objects --- *)

let test_result_extractors () =
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let v = Array.make (r + 1) r in
        let full =
          Kamping.Named.(
            allgatherv comm Datatype.int
              [ send_buf v; recv_counts_out (); recv_displs_out () ])
        in
        ( Kamping.Named.extract_recv_buf full,
          Kamping.Named.extract_recv_counts full,
          Kamping.Named.extract_recv_displs full ))
  in
  let buf, counts, displs = results.(0) in
  Alcotest.(check (array int)) "buf" [| 0; 1; 1; 2; 2; 2 |] buf;
  Alcotest.(check (array int)) "counts" [| 1; 2; 3 |] counts;
  Alcotest.(check (array int)) "displs" [| 0; 1; 3 |] displs

(* --- resize policies --- *)

let test_resize_to_fit () =
  let v = Kamping.Vec.of_array [| 9; 9 |] in
  Kamping.Vec.write_array Kamping.Resize_policy.Resize_to_fit v [| 1; 2; 3; 4 |];
  Alcotest.(check int) "resized" 4 (Kamping.Vec.length v);
  Alcotest.(check (array int)) "contents" [| 1; 2; 3; 4 |] (Kamping.Vec.to_array v)

let test_grow_only_grows () =
  let v = Kamping.Vec.of_array [| 9; 9 |] in
  Kamping.Vec.write_array Kamping.Resize_policy.Grow_only v [| 1; 2; 3 |];
  Alcotest.(check int) "grown" 3 (Kamping.Vec.length v)

let test_grow_only_keeps_larger () =
  let v = Kamping.Vec.of_array [| 9; 9; 9; 9; 9 |] in
  Kamping.Vec.write_array Kamping.Resize_policy.Grow_only v [| 1; 2 |];
  Alcotest.(check int) "length kept" 5 (Kamping.Vec.length v);
  Alcotest.(check int) "prefix written" 1 (Kamping.Vec.get v 0);
  Alcotest.(check int) "suffix untouched" 9 (Kamping.Vec.get v 4)

let test_no_resize_rejects_small () =
  let v = Kamping.Vec.of_array [| 9 |] in
  match Kamping.Vec.write_array Kamping.Resize_policy.No_resize v [| 1; 2; 3 |] with
  | () -> Alcotest.fail "expected Usage_error"
  | exception Errdefs.Usage_error _ -> ()

(* --- in-place allgather --- *)

let test_allgather_inplace () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let buf = Array.make 4 (-1) in
        buf.(r) <- r * 7;
        Kamping.Collectives.allgather_inplace comm Datatype.int buf)
  in
  Array.iter
    (fun res -> Alcotest.(check (array int)) "filled" [| 0; 7; 14; 21 |] res)
    results

(* --- non-blocking safety --- *)

let test_nb_send_returns_buffer () =
  let results =
    Engine.run_values ~ranks:2 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        if Comm.rank mpi = 0 then begin
          let buf = [| 1; 2; 3 |] in
          let nb = Kamping.Nb.isend comm Datatype.int ~dest:1 buf in
          let returned = Kamping.Nb.wait nb in
          returned == buf
        end
        else begin
          ignore (Kamping.P2p.recv comm Datatype.int ~source:0 () : int array);
          true
        end)
  in
  Alcotest.(check bool) "same buffer moved back" true results.(0)

let test_nb_test_before_completion () =
  (* The flag is shared between the two fibers (same heap): rank 0 only
     sends after rank 1 has observed the incomplete request. *)
  let observed = ref false in
  let results =
    Engine.run_values ~ranks:2 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        if Comm.rank mpi = 1 then begin
          let nb = Kamping.Nb.irecv comm Datatype.int ~source:0 () in
          let early = Kamping.Nb.test nb in
          observed := true;
          let data = Kamping.Nb.wait nb in
          (early = None, data)
        end
        else begin
          Scheduler.park
            ~describe:(fun () -> "waiting for rank 1 to observe")
            ~poll:(fun () -> if !observed then Some () else None);
          Kamping.P2p.send comm Datatype.int ~dest:1 [| 42 |];
          (true, [||])
        end)
  in
  let was_none, data = results.(1) in
  Alcotest.(check bool) "test before completion is None" true was_none;
  Alcotest.(check (array int)) "wait returns data" [| 42 |] data

let test_issend_nb () =
  let results =
    Engine.run_values ~ranks:2 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        if Comm.rank mpi = 0 then begin
          let nb = Kamping.Nb.issend comm Datatype.int ~dest:1 [| 5 |] in
          ignore (Kamping.Nb.wait nb);
          true
        end
        else begin
          let d = Kamping.P2p.recv comm Datatype.int ~source:0 () in
          d = [| 5 |]
        end)
  in
  Alcotest.(check bool) "issend completed" true (results.(0) && results.(1))

(* --- request pool --- *)

let test_request_pool_unbounded () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let pool = Kamping.Request_pool.create () in
        let n = Comm.size mpi in
        let r = Comm.rank mpi in
        Kamping.Communicator.iter_other_ranks comm (fun dest ->
            Kamping.Request_pool.add pool
              (Kamping.Nb.isend comm Datatype.int ~dest [| r |]));
        let received = ref 0 in
        for _ = 1 to n - 1 do
          let d = Kamping.P2p.recv comm Datatype.int () in
          received := !received + d.(0)
        done;
        Kamping.Request_pool.wait_all pool;
        (!received, Kamping.Request_pool.pending_count pool))
  in
  Array.iteri
    (fun r (sum, pending) ->
      Alcotest.(check int) "sum of other ranks" (6 - r) sum;
      Alcotest.(check int) "pool drained" 0 pending)
    results

let test_request_pool_slots () =
  let results =
    Engine.run_values ~ranks:2 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        if Comm.rank mpi = 0 then begin
          let pool = Kamping.Request_pool.create ~slots:2 () in
          for i = 1 to 5 do
            Kamping.Request_pool.add pool
              (Kamping.Nb.isend comm Datatype.int ~dest:1 [| i |])
          done;
          let p = Kamping.Request_pool.pending_count pool in
          Kamping.Request_pool.wait_all pool;
          p
        end
        else begin
          for _ = 1 to 5 do
            ignore (Kamping.P2p.recv comm Datatype.int ~source:0 () : int array)
          done;
          2
        end)
  in
  Alcotest.(check int) "bounded in-flight" 2 results.(0)

(* --- flatten --- *)

let prop_flatten_counts =
  QCheck.Test.make ~name:"flatten: counts match table" ~count:100
    QCheck.(small_list (pair (int_bound 7) (small_list int)))
    (fun entries ->
      let table = Hashtbl.create 8 in
      List.iter
        (fun (d, xs) ->
          Hashtbl.replace table d (xs @ (try Hashtbl.find table d with Not_found -> [])))
        entries;
      let data, counts = Kamping.Flatten.flatten ~size:8 table in
      let expected_total = Hashtbl.fold (fun _ xs acc -> acc + List.length xs) table 0 in
      Array.length data = expected_total
      && Array.fold_left ( + ) 0 counts = expected_total
      && Hashtbl.fold
           (fun d xs acc -> acc && counts.(d) = List.length xs)
           table true)

let test_flatten_groups_in_order () =
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 2 [ 20; 21 ];
  Hashtbl.replace table 0 [ 1 ];
  let data, counts = Kamping.Flatten.flatten ~size:3 table in
  Alcotest.(check (array int)) "counts" [| 1; 0; 2 |] counts;
  Alcotest.(check (array int)) "grouped data" [| 1; 20; 21 |] data

(* --- serialized values through the typed calls --- *)

let strings = Kamping.Serialized.datatype Serial.Codec.string

let test_serialized_sparse_exchange () =
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        Kamping_plugins.Sparse_alltoall.alltoallv comm strings
          [ ((r + 1) mod 3, [| Printf.sprintf "from-%d" r |]) ])
  in
  Alcotest.(check bool) "rank 1 got rank 0's string" true
    (List.mem (0, [| "from-0" |]) results.(1))

let test_serialized_gather () =
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        Kamping.Collectives.gather comm strings ~root:1
          [| String.make (Comm.rank mpi + 1) 'x' |])
  in
  Alcotest.(check (array string))
    "gathered in rank order" [| "x"; "xx"; "xxx" |] results.(1);
  Alcotest.(check (array string)) "non-root empty" [||] results.(0)

(* A variable-size payload is costed by what it packs: a 4-rank bcast of a
   1 MiB serialized string records one copy of its packed frame (the
   root's), while the binomial tree's three sends carry one each. *)
let test_serialized_bcast_costed_by_frame () =
  let v = String.make (1 lsl 20) 'x' in
  let frame = 8 + Bytes.length (Serial.Archive.encode Serial.Codec.string v) in
  let report =
    Engine.run ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let got =
          Kamping.Collectives.bcast_single comm strings ~root:0
            ?value:(if Comm.rank mpi = 0 then Some v else None)
            ()
        in
        assert (got = v))
  in
  let row op = List.find (fun (o, _, _) -> o = op) report.Engine.profile in
  Alcotest.(check (triple string int int)) "bcast row" ("bcast", 4, frame) (row "bcast");
  Alcotest.(check (triple string int int)) "send row" ("send", 3, 3 * frame) (row "send")

(* A placeholder that can be written to is made anew for every call: a
   write into one call's gap never shows in the next call's. *)
let test_placeholder_not_shared_between_calls () =
  let dt = Datatype.contiguous ~count:3 Datatype.int in
  Datatype.with_committed dt (fun dt ->
      let results =
        Engine.run_values ~ranks:2 (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let r = Comm.rank mpi in
            let call () =
              Kamping.Collectives.allgatherv comm dt ~recv_counts:[| 1; 1 |]
                ~recv_displs:[| 0; 2 |] [| Array.make 3 (r + 1) |]
            in
            let first = call () in
            first.(1).(0) <- 42;
            (first.(1), (call ()).(1)))
      in
      Array.iter
        (fun (first_gap, second_gap) ->
          Alcotest.(check (array int)) "first call's gap, written" [| 42; 0; 0 |] first_gap;
          Alcotest.(check (array int)) "second call's gap" [| 0; 0; 0 |] second_gap)
        results);
  (* The same over a serialized table: each gap is a table of its own. *)
  let dt = Kamping.Serialized.datatype Serial.Codec.(hashtbl string string) in
  let results =
    Engine.run_values ~ranks:2 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let own = Hashtbl.create 1 in
        Hashtbl.replace own "rank" (string_of_int (Comm.rank mpi));
        let call () =
          Kamping.Collectives.allgatherv comm dt ~recv_counts:[| 1; 1 |]
            ~recv_displs:[| 0; 2 |] [| own |]
        in
        let first = call () in
        Hashtbl.replace first.(1) "written" "yes";
        (Hashtbl.length first.(1), Hashtbl.length (call ()).(1)))
  in
  Array.iter
    (fun (first_gap, second_gap) ->
      Alcotest.(check int) "first call's table gap, written" 1 first_gap;
      Alcotest.(check int) "second call's table gap" 0 second_gap)
    results

(* --- profiling guarantee (§III-H) --- *)

let test_only_expected_calls () =
  let report =
    Engine.run ~model:Net_model.zero_cost ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        ignore (Kamping.Collectives.allgatherv comm Datatype.int [| Comm.rank mpi |]))
  in
  let calls op =
    match List.find_opt (fun (o, _, _) -> o = op) report.Engine.profile with
    | Some (_, c, _) -> c
    | None -> 0
  in
  (* One inferred allgatherv per rank: exactly one count-allgather and one
     allgatherv underneath, nothing else at the collective level. *)
  Alcotest.(check int) "allgatherv calls" 4 (calls "allgatherv");
  Alcotest.(check int) "allgather calls" 4 (calls "allgather");
  Alcotest.(check int) "no alltoall" 0 (calls "alltoall");
  Alcotest.(check int) "no bcast" 0 (calls "bcast")

(* --- non-blocking collectives through the Nb interface --- *)

let test_nb_coll_iallreduce () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let nb = Kamping.Nb_coll.iallreduce comm Datatype.int Reduce_op.int_sum [| 2 |] in
        (* independent work here *)
        Kamping.Nb.wait nb)
  in
  Array.iter (fun v -> Alcotest.(check (array int)) "iallreduce nb" [| 8 |] v) results

let test_nb_coll_ialltoallv () =
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let send_counts = Array.make 3 1 in
        let nb =
          Kamping.Nb_coll.ialltoallv comm Datatype.int ~send_counts
            (Array.init 3 (fun d -> (r * 10) + d))
        in
        Kamping.Nb.wait nb)
  in
  Array.iteri
    (fun d v ->
      Alcotest.(check (array int)) "ialltoallv nb" (Array.init 3 (fun s -> (s * 10) + d)) v)
    results

let test_nb_coll_ibarrier () =
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let nb = Kamping.Nb_coll.ibarrier comm in
        Kamping.Nb.wait nb;
        true)
  in
  Array.iter (fun ok -> Alcotest.(check bool) "ibarrier nb" true ok) results

let tests =
  [
    qtest prop_inferred_equals_explicit_allgatherv;
    qtest prop_inferred_equals_explicit_alltoallv;
    Alcotest.test_case "result extractors" `Quick test_result_extractors;
    Alcotest.test_case "resize_to_fit" `Quick test_resize_to_fit;
    Alcotest.test_case "grow_only grows" `Quick test_grow_only_grows;
    Alcotest.test_case "grow_only keeps larger" `Quick test_grow_only_keeps_larger;
    Alcotest.test_case "no_resize rejects" `Quick test_no_resize_rejects_small;
    Alcotest.test_case "allgather in-place" `Quick test_allgather_inplace;
    Alcotest.test_case "nb send returns buffer" `Quick test_nb_send_returns_buffer;
    Alcotest.test_case "nb test before completion" `Quick test_nb_test_before_completion;
    Alcotest.test_case "nb issend" `Quick test_issend_nb;
    Alcotest.test_case "request pool unbounded" `Quick test_request_pool_unbounded;
    Alcotest.test_case "request pool slots" `Quick test_request_pool_slots;
    qtest prop_flatten_counts;
    Alcotest.test_case "flatten grouping" `Quick test_flatten_groups_in_order;
    Alcotest.test_case "serialized sparse exchange" `Quick test_serialized_sparse_exchange;
    Alcotest.test_case "serialized gather" `Quick test_serialized_gather;
    Alcotest.test_case "serialized bcast costed by its frame" `Quick
      test_serialized_bcast_costed_by_frame;
    Alcotest.test_case "placeholder not shared between calls" `Quick
      test_placeholder_not_shared_between_calls;
    Alcotest.test_case "only expected calls issued" `Quick test_only_expected_calls;
  ]
  @ [
      Alcotest.test_case "nb_coll iallreduce" `Quick test_nb_coll_iallreduce;
      Alcotest.test_case "nb_coll ialltoallv" `Quick test_nb_coll_ialltoallv;
      Alcotest.test_case "nb_coll ibarrier" `Quick test_nb_coll_ibarrier;
    ]


let () = Alcotest.run "kamping" [ ("kamping", tests) ]

