(* Tests for cartesian topologies, reduce-scatter, and non-blocking
   collectives. *)

open Mpisim

let qtest = QCheck_alcotest.to_alcotest

(* --- dims_create --- *)

let prop_dims_create_product =
  QCheck.Test.make ~name:"dims_create: product = nnodes" ~count:200
    QCheck.(pair (Arb.ranks 1 400) (int_range 1 4))
    (fun (nnodes, ndims) ->
      let dims = Cart.dims_create ~nnodes ~ndims in
      Array.length dims = ndims && Array.fold_left ( * ) 1 dims = nnodes)

let test_dims_create_balanced () =
  Alcotest.(check (array int)) "16 into 2d" [| 4; 4 |] (Cart.dims_create ~nnodes:16 ~ndims:2);
  Alcotest.(check (array int)) "12 into 2d" [| 4; 3 |] (Cart.dims_create ~nnodes:12 ~ndims:2);
  Alcotest.(check (array int)) "8 into 3d" [| 2; 2; 2 |] (Cart.dims_create ~nnodes:8 ~ndims:3)

(* --- coordinates and shifts --- *)

let test_coords_roundtrip () =
  ignore
    (Engine.run ~ranks:12 (fun comm ->
         let cart = Cart.create comm ~dims:[| 3; 4 |] ~periods:[| false; true |] in
         let me = Comm.rank (Cart.comm cart) in
         let coords = Cart.my_coords cart in
         assert (Cart.rank_of_coords cart coords = Some me);
         assert (coords.(0) = me / 4 && coords.(1) = me mod 4)))

let test_shift_boundaries () =
  let results =
    Engine.run_values ~ranks:6 (fun comm ->
        let cart = Cart.create comm ~dims:[| 2; 3 |] ~periods:[| false; true |] in
        (Cart.shift cart ~dim:0 ~disp:1, Cart.shift cart ~dim:1 ~disp:1))
  in
  (* rank 0 = (0,0): dim 0 non-periodic: src None (up out of range... source
     is at coord-1 = (-1,0) -> None), dest = (1,0) = rank 3.
     dim 1 periodic: src = (0,2) = rank 2, dest = (0,1) = rank 1. *)
  let (src0, dst0), (src1, dst1) = results.(0) in
  Alcotest.(check (option int)) "dim0 src" None src0;
  Alcotest.(check (option int)) "dim0 dst" (Some 3) dst0;
  Alcotest.(check (option int)) "dim1 src (wrap)" (Some 2) src1;
  Alcotest.(check (option int)) "dim1 dst" (Some 1) dst1

let test_halo_exchange_ring () =
  (* Periodic 1-D ring: everyone receives both neighbors' values. *)
  let results =
    Engine.run_values ~ranks:5 (fun comm ->
        let cart = Cart.create comm ~dims:[| 5 |] ~periods:[| true |] in
        let me = Comm.rank (Cart.comm cart) in
        let from_prev, from_next =
          Cart.halo_exchange cart Datatype.int ~dim:0 ~to_prev:[| me |] ~to_next:[| me |]
        in
        (Option.get from_prev).(0), (Option.get from_next).(0))
  in
  Array.iteri
    (fun r (p, n) ->
      Alcotest.(check int) "from prev" ((r + 4) mod 5) p;
      Alcotest.(check int) "from next" ((r + 1) mod 5) n)
    results

let test_halo_open_boundary () =
  let results =
    Engine.run_values ~ranks:3 (fun comm ->
        let cart = Cart.create comm ~dims:[| 3 |] ~periods:[| false |] in
        let me = Comm.rank (Cart.comm cart) in
        let from_prev, from_next =
          Cart.halo_exchange cart Datatype.int ~dim:0 ~to_prev:[| me |] ~to_next:[| me |]
        in
        (from_prev = None, from_next = None))
  in
  Alcotest.(check (pair bool bool)) "rank 0 has no prev" (true, false) results.(0);
  Alcotest.(check (pair bool bool)) "rank 2 has no next" (false, true) results.(2);
  Alcotest.(check (pair bool bool)) "rank 1 has both" (false, false) results.(1)

(* Distinct payloads each way: on a periodic dimension of extent 2 the one
   neighbour is both prev and next, and [from_prev] must be what it sent
   toward its next; at extent 1 a rank is its own neighbour both ways. *)
let test_halo_extent_two () =
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let cart = Cart.create comm ~dims:[| 2 |] ~periods:[| true |] in
        let r = Comm.rank (Cart.comm cart) in
        let from_prev, from_next =
          Cart.halo_exchange cart Datatype.int ~dim:0 ~to_prev:[| 100 + r |]
            ~to_next:[| 200 + r |]
        in
        ((Option.get from_prev).(0), (Option.get from_next).(0)))
  in
  Alcotest.(check (pair int int)) "rank 0" (201, 101) results.(0);
  Alcotest.(check (pair int int)) "rank 1" (200, 100) results.(1);
  let self =
    Engine.run_values ~ranks:1 (fun comm ->
        let cart = Cart.create comm ~dims:[| 1 |] ~periods:[| true |] in
        let from_prev, from_next =
          Cart.halo_exchange cart Datatype.int ~dim:0 ~to_prev:[| 100 |] ~to_next:[| 200 |]
        in
        ((Option.get from_prev).(0), (Option.get from_next).(0)))
  in
  Alcotest.(check (pair int int)) "extent 1: own messages" (200, 100) self.(0)

let test_cart_sub () =
  (* A 2x3 grid split into rows: each row becomes a 1-D cart of size 3. *)
  let results =
    Engine.run_values ~ranks:6 (fun comm ->
        let cart = Cart.create comm ~dims:[| 2; 3 |] ~periods:[| false; false |] in
        let row = Cart.sub cart ~keep:[| false; true |] in
        let members =
          Coll.allgather (Cart.comm row) Datatype.int [| Comm.rank comm |]
        in
        (Cart.dims row, members))
  in
  let dims0, members0 = results.(0) in
  Alcotest.(check (array int)) "row dims" [| 3 |] dims0;
  Alcotest.(check (array int)) "row 0 members" [| 0; 1; 2 |] members0;
  let _, members5 = results.(5) in
  Alcotest.(check (array int)) "row 1 members" [| 3; 4; 5 |] members5

(* --- reduce_scatter --- *)

let prop_reduce_scatter_block =
  QCheck.Test.make ~name:"reduce_scatter_block = reduce then scatter" ~count:50
    QCheck.(pair (Arb.ranks 1 8) (int_bound 1000))
    (fun (p, seed) ->
      let count = 3 in
      let results =
        Engine.run_values ~model:Net_model.zero_cost ~ranks:p (fun comm ->
            let r = Comm.rank comm in
            let data =
              Array.init (p * count) (fun i ->
                  Xoshiro.hash_int ~seed ~stream:r ~counter:i ~bound:100)
            in
            (data, Coll.reduce_scatter_block comm Datatype.int Reduce_op.int_sum data))
      in
      let inputs = Array.map fst results in
      Array.for_all
        (fun r ->
          let expected =
            Array.init count (fun j ->
                Array.fold_left (fun acc input -> acc + input.((r * count) + j)) 0 inputs)
          in
          snd results.(r) = expected)
        (Array.init p Fun.id))

let test_reduce_scatter_varying () =
  let p = 4 in
  let counts = [| 1; 2; 0; 3 |] in
  let results =
    Engine.run_values ~ranks:p (fun comm ->
        let data = Array.init 6 (fun i -> i + Comm.rank comm) in
        Coll.reduce_scatter comm Datatype.int Reduce_op.int_sum ~recv_counts:counts data)
  in
  (* Reduced vector: elem i = sum over ranks of (i + r) = 4i + 6. *)
  let reduced = Array.init 6 (fun i -> (4 * i) + 6) in
  Alcotest.(check (array int)) "rank 0" (Array.sub reduced 0 1) results.(0);
  Alcotest.(check (array int)) "rank 1" (Array.sub reduced 1 2) results.(1);
  Alcotest.(check (array int)) "rank 2" [||] results.(2);
  Alcotest.(check (array int)) "rank 3" (Array.sub reduced 3 3) results.(3)

(* --- non-blocking collectives --- *)

let test_iallreduce_deferred () =
  let results =
    Engine.run_values ~ranks:4 (fun comm ->
        let req, cell = Coll.iallreduce comm Datatype.int Reduce_op.int_sum [| 1; 2 |] in
        (* Independent work before completing the collective. *)
        let local = Comm.rank comm * 10 in
        let (_ : Status.t) = Request.wait req in
        (local, Option.get !cell))
  in
  Array.iter
    (fun (_, sum) -> Alcotest.(check (array int)) "deferred allreduce" [| 4; 8 |] sum)
    results

let test_ibcast_deferred () =
  let results =
    Engine.run_values ~ranks:5 (fun comm ->
        let payload = if Comm.rank comm = 2 then Some [| 7; 8; 9 |] else None in
        let req, cell = Coll.ibcast comm Datatype.int ~root:2 payload in
        let (_ : Status.t) = Request.wait req in
        Option.get !cell)
  in
  Array.iter (fun v -> Alcotest.(check (array int)) "ibcast" [| 7; 8; 9 |] v) results

let test_nonblocking_wait_idempotent () =
  let results =
    Engine.run_values ~ranks:2 (fun comm ->
        let req, cell = Coll.iallreduce comm Datatype.int Reduce_op.int_sum [| 1 |] in
        let (_ : Status.t) = Request.wait req in
        let a = Option.get !cell in
        let (_ : Status.t) = Request.wait req in
        a == Option.get !cell)
  in
  Array.iter (fun same -> Alcotest.(check bool) "same result object" true same) results

let tests =
  [
    qtest prop_dims_create_product;
    Alcotest.test_case "dims_create balanced" `Quick test_dims_create_balanced;
    Alcotest.test_case "coords roundtrip" `Quick test_coords_roundtrip;
    Alcotest.test_case "shift boundaries" `Quick test_shift_boundaries;
    Alcotest.test_case "halo exchange (periodic ring)" `Quick test_halo_exchange_ring;
    Alcotest.test_case "halo open boundary" `Quick test_halo_open_boundary;
    Alcotest.test_case "halo periodic extent 2 and 1" `Quick test_halo_extent_two;
    Alcotest.test_case "cart sub" `Quick test_cart_sub;
    qtest prop_reduce_scatter_block;
    Alcotest.test_case "reduce_scatter varying counts" `Quick test_reduce_scatter_varying;
    Alcotest.test_case "iallreduce deferred" `Quick test_iallreduce_deferred;
    Alcotest.test_case "ibcast deferred" `Quick test_ibcast_deferred;
    Alcotest.test_case "nonblocking wait idempotent" `Quick
      test_nonblocking_wait_idempotent;
  ]

let () = Alcotest.run "cart" [ ("cart", tests) ]
