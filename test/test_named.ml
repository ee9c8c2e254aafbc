(* Tests for the named-parameter front-end (the paper's Fig. 1 interface):
   parameter factories in any order, inferred defaults, out-parameter
   opt-in, in-place spelling, and the quality of the run-time diagnostics
   (§III-G).  An unaccepted parameter is a compile error, checked by the
   rules in reject/dune. *)

open Mpisim
open Kamping.Named

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_fig1_one_liner () =
  (* auto v_global = comm.allgatherv(send_buf(v)); *)
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let v = Array.make (r + 1) r in
        extract_recv_buf (allgatherv comm Datatype.int [ send_buf v ]))
  in
  Alcotest.(check (array int)) "concatenation"
    [| 0; 1; 1; 2; 2; 2; 3; 3; 3; 3 |]
    results.(0)

let test_fig1_detailed_tuning () =
  (* auto [v_global, rcounts, rdispls] =
       comm.allgatherv(send_buf(v), recv_counts_out(), recv_displs_out()); *)
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let v = Array.make (r + 1) r in
        decompose
          (allgatherv comm Datatype.int
             [ send_buf v; recv_counts_out (); recv_displs_out () ]))
  in
  let buf, counts, displs = results.(0) in
  Alcotest.(check (array int)) "buf" [| 0; 1; 1; 2; 2; 2 |] buf;
  Alcotest.(check (option (array int))) "counts" (Some [| 1; 2; 3 |]) counts;
  Alcotest.(check (option (array int))) "displs" (Some [| 0; 1; 3 |]) displs

let test_params_in_any_order () =
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let v = Array.make 2 r in
        let a =
          extract_recv_buf
            (allgatherv comm Datatype.int [ send_buf v; recv_counts_out () ])
        in
        let b =
          extract_recv_buf
            (allgatherv comm Datatype.int [ recv_counts_out (); send_buf v ])
        in
        a = b)
  in
  Array.iter (fun ok -> Alcotest.(check bool) "order irrelevant" true ok) results

let test_recv_buf_param () =
  (* recv_buf<resize_to_fit>(rc) *)
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let out = Kamping.Vec.create () in
        ignore
          (allgatherv comm Datatype.int
             [
               send_buf [| Comm.rank mpi |];
               recv_buf ~policy:Kamping.Resize_policy.Resize_to_fit out;
             ]);
        Kamping.Vec.to_array out)
  in
  Alcotest.(check (array int)) "written into vec" [| 0; 1; 2 |] results.(0)

let test_in_place_allgather () =
  (* data = comm.allgather(send_recv_buf(std::move(data))); *)
  let results =
    Engine.run_values ~ranks:4 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let data = Array.make 4 0 in
        data.(Comm.rank mpi) <- Comm.rank mpi + 1;
        extract_recv_buf (allgather comm Datatype.int [ send_recv_buf data ]))
  in
  Array.iter
    (fun v -> Alcotest.(check (array int)) "in-place filled" [| 1; 2; 3; 4 |] v)
    results

let test_alltoallv_named () =
  let results =
    Engine.run_values ~ranks:3 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        let r = Comm.rank mpi in
        let counts = Array.make 3 1 in
        extract_recv_buf
          (alltoallv comm Datatype.int
             [ send_buf (Array.init 3 (fun d -> (r * 10) + d)); send_counts counts ]))
  in
  Array.iteri
    (fun d v ->
      Alcotest.(check (array int)) "transpose" (Array.init 3 (fun s -> (s * 10) + d)) v)
    results

let test_allreduce_with_op_param () =
  let results =
    Engine.run_values ~ranks:5 (fun mpi ->
        let comm = Kamping.Communicator.of_mpi mpi in
        extract_recv_buf
          (allreduce comm Datatype.int [ send_buf [| Comm.rank mpi |]; op Reduce_op.int_max ]))
  in
  Array.iter (fun v -> Alcotest.(check (array int)) "max" [| 4 |] v) results

(* Given displacements place each block as MPI does, in both spellings:
   on 2 ranks sending [10] and [11], displacements [1; 0] swap the
   blocks and [0; 3] leave a gap of the datatype's zero.  Counts given
   or inferred make no difference. *)
let test_allgatherv_recv_displs_place () =
  List.iter
    (fun (displs, expected) ->
      let results =
        Engine.run_values ~ranks:2 (fun mpi ->
            let comm = Kamping.Communicator.of_mpi mpi in
            let v = [| 10 + Comm.rank mpi |] and counts = [| 1; 1 |] in
            [
              extract_recv_buf
                (allgatherv comm Datatype.int
                   [ send_buf v; recv_counts counts; recv_displs displs ]);
              extract_recv_buf (allgatherv comm Datatype.int [ recv_displs displs; send_buf v ]);
              Kamping.Collectives.allgatherv comm Datatype.int ~recv_counts:counts
                ~recv_displs:displs v;
              Kamping.Collectives.allgatherv comm Datatype.int ~recv_displs:displs v;
            ])
      in
      Array.iter (List.iter (Alcotest.(check (array int)) "placed" expected)) results)
    [ ([| 1; 0 |], [| 11; 10 |]); ([| 0; 3 |], [| 10; 0; 0; 11 |]); ([| 0; 1 |], [| 10; 11 |]) ]

(* --- diagnostics quality (§III-G) --- *)

let expect_usage_error ~mentions f =
  match Engine.run ~ranks:2 f with
  | _ -> Alcotest.fail "expected Usage_error"
  | exception Scheduler.Aborted { exn = Errdefs.Usage_error msg; _ } ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S mentions %S" msg needle)
            true (has_sub msg needle))
        mentions
  | exception Errdefs.Usage_error msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "message %S mentions %S" msg needle)
            true (has_sub msg needle))
        mentions

let test_missing_required_parameter () =
  expect_usage_error ~mentions:[ "allgatherv"; "send_buf"; "missing" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      ignore (allgatherv comm Datatype.int [ recv_counts_out () ]))

let test_duplicate_parameter () =
  expect_usage_error ~mentions:[ "more than once"; "send_buf" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      ignore (allgatherv comm Datatype.int [ send_buf [| 1 |]; send_buf [| 2 |] ]))

let test_unrequested_out_param_extraction () =
  expect_usage_error ~mentions:[ "recv_counts"; "recv_counts_out" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      let r = allgatherv comm Datatype.int [ send_buf [| 1 |] ] in
      ignore (extract_recv_counts r))

let test_bad_recv_displs () =
  expect_usage_error ~mentions:[ "allgatherv"; "recv_displs"; "negative" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      ignore (allgatherv comm Datatype.int [ send_buf [| 1 |]; recv_displs [| 0; -1 |] ]));
  expect_usage_error ~mentions:[ "allgatherv"; "recv_displs"; "length 1" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      ignore (Kamping.Collectives.allgatherv comm Datatype.int ~recv_displs:[| 0 |] [| 1 |]))

let test_in_place_conflict () =
  expect_usage_error ~mentions:[ "either send_buf or send_recv_buf" ] (fun mpi ->
      let comm = Kamping.Communicator.of_mpi mpi in
      ignore (allgather comm Datatype.int [ send_buf [| 1; 2 |]; send_recv_buf [| 1; 2 |] ]))

(* --- allocation --- *)

(* Minor words per call per rank of [f] on 8 ranks (omnipath,
   Virtual_only): 400 calls minus 200 calls, so the run's own setup
   cancels out. *)
let words_per_call f =
  let ranks = 8 in
  let words calls =
    let w0 = Gc.minor_words () in
    ignore
      (Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only ~ranks
         (fun mpi ->
           let comm = Kamping.Communicator.of_mpi mpi in
           for _ = 1 to calls do
             f comm
           done));
    Gc.minor_words () -. w0
  in
  (words 400 -. words 200) /. 200. /. float_of_int ranks

(* What Named adds over the labelled call: the caller's list cells (3
   words per parameter), the parameter blocks (2 per parameter), the
   resolved arguments (13), a [Some] per required parameter the labelled
   call takes positionally (2 each), and the result record (5):
   allgatherv with 3 parameters 9 + 6 + 13 + 2 + 5 = 35, allreduce with
   2 parameters 6 + 4 + 13 + 4 + 5 = 32. *)
let test_words_per_call () =
  let elems = 16 and ranks = 8 in
  let v = Array.init elems Fun.id in
  let counts = Array.make ranks elems in
  let displs = Array.init ranks (fun i -> i * elems) in
  let ar = Array.make 256 1 and sum = Reduce_op.int_sum in
  let pin name ~budget ~over_labelled named labelled =
    let n = words_per_call named and l = words_per_call labelled in
    if n > budget then Alcotest.failf "%s: %.2f words per call (budget %.2f)" name n budget;
    if n -. l > over_labelled then
      Alcotest.failf "%s: %.2f words per call over labelled (budget %.2f)" name (n -. l)
        over_labelled
  in
  pin "allgatherv, 3 parameters" ~budget:361.25 ~over_labelled:35.
    (fun comm ->
      ignore
        (extract_recv_buf
           (allgatherv comm Datatype.int
              [ send_buf v; recv_counts counts; recv_displs displs ])))
    (fun comm ->
      ignore
        (Kamping.Collectives.allgatherv comm Datatype.int ~recv_counts:counts
           ~recv_displs:displs v));
  pin "allreduce, 2 parameters" ~budget:686. ~over_labelled:32.
    (fun comm ->
      ignore (extract_recv_buf (allreduce comm Datatype.int [ send_buf ar; op sum ])))
    (fun comm -> ignore (Kamping.Collectives.allreduce comm Datatype.int sum ar))

let tests =
  [
    Alcotest.test_case "Fig 1 one-liner" `Quick test_fig1_one_liner;
    Alcotest.test_case "Fig 1 detailed tuning" `Quick test_fig1_detailed_tuning;
    Alcotest.test_case "order irrelevant" `Quick test_params_in_any_order;
    Alcotest.test_case "recv_buf param" `Quick test_recv_buf_param;
    Alcotest.test_case "in-place allgather" `Quick test_in_place_allgather;
    Alcotest.test_case "named alltoallv" `Quick test_alltoallv_named;
    Alcotest.test_case "allreduce with op param" `Quick test_allreduce_with_op_param;
    Alcotest.test_case "missing required diagnostic" `Quick test_missing_required_parameter;
    Alcotest.test_case "duplicate diagnostic" `Quick test_duplicate_parameter;
    Alcotest.test_case "unrequested out extraction" `Quick
      test_unrequested_out_param_extraction;
    Alcotest.test_case "in-place conflict diagnostic" `Quick test_in_place_conflict;
    Alcotest.test_case "allgatherv recv_displs place blocks" `Quick
      test_allgatherv_recv_displs_place;
    Alcotest.test_case "bad recv_displs diagnostic" `Quick test_bad_recv_displs;
    Alcotest.test_case "words per call" `Quick test_words_per_call;
  ]

let () = Alcotest.run "named" [ ("named", tests) ]
