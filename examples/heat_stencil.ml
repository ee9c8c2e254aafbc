(* 2-D heat diffusion with a 5-point stencil on a cartesian process grid —
   the classic halo-exchange workload (the "regular scientific computing"
   pattern that MPL's layouts target, §II/§III-D2).

   The global grid is decomposed into 2-D blocks over a cartesian
   topology.  Each iteration exchanges one-cell halos with the four
   neighbors — rows travel contiguously; columns are strided and go
   through an MPL-style {!Mpisim.Layout} datatype — then applies the
   stencil.  A reproducible-reduce of the total heat checks conservation.

     dune exec examples/heat_stencil.exe -- [--check LEVEL] [ranks] [iterations] *)

open Mpisim

let () =
  let ranks = Example_cli.arg 0 int_of_string ~default:16 in
  let iterations = Example_cli.arg 1 int_of_string ~default:50 in
  let local_n = 32 in
  (* interior cells per dimension per rank *)
  let results, report =
    Engine.run_collect ~check_level:Example_cli.check_level ~ranks (fun mpi ->
        let dims = Cart.dims_create ~nnodes:ranks ~ndims:2 in
        let cart = Cart.create mpi ~dims ~periods:[| false; false |] in
        let comm = Cart.comm cart in
        let coords = Cart.my_coords cart in
        (* Grid with a one-cell ghost border. *)
        let w = local_n + 2 in
        let grid = Array.make (w * w) 0. in
        let at i j = (i * w) + j in
        (* Initial condition: a hot square on the rank owning the global
           center. *)
        if coords.(0) = dims.(0) / 2 && coords.(1) = dims.(1) / 2 then
          for i = w / 2 - 2 to (w / 2) + 2 do
            for j = w / 2 - 2 to (w / 2) + 2 do
              grid.(at i j) <- 100.
            done
          done;
        let initial_heat =
          Kamping_plugins.Repro_reduce.sum
            (Kamping.Communicator.of_mpi comm)
            (Array.copy grid)
        in
        (* Column halos are strided: an MPL-style layout datatype selects
           them directly out of the flat grid. *)
        let col_layout j = Layout.offset ((1 * w) + j) (Layout.vector ~count:local_n ~blocklen:1 ~stride:w) in
        let next = Array.copy grid in
        for _ = 1 to iterations do
          (* Rows (dimension 0): contiguous slices. *)
          let row i = Array.sub grid (at i 1) local_n in
          let from_up, from_down =
            Cart.halo_exchange cart Datatype.float ~dim:0 ~to_prev:(row 1)
              ~to_next:(row local_n)
          in
          (match from_up with
          | Some h -> Array.blit h 0 grid (at 0 1) local_n
          | None -> ());
          (match from_down with
          | Some h -> Array.blit h 0 grid (at (local_n + 1) 1) local_n
          | None -> ());
          (* Columns (dimension 1): strided, via layouts. *)
          let col j = Layout.extract (col_layout j) grid in
          let from_left, from_right =
            Cart.halo_exchange cart Datatype.float ~dim:1 ~to_prev:(col 1)
              ~to_next:(col local_n)
          in
          (match from_left with
          | Some h -> Layout.scatter_into (col_layout 0) ~packed:h grid
          | None -> ());
          (match from_right with
          | Some h -> Layout.scatter_into (col_layout (local_n + 1)) ~packed:h grid
          | None -> ());
          (* 5-point stencil on the interior. *)
          for i = 1 to local_n do
            for j = 1 to local_n do
              next.(at i j) <-
                grid.(at i j)
                +. 0.1
                   *. (grid.(at (i - 1) j) +. grid.(at (i + 1) j) +. grid.(at i (j - 1))
                     +. grid.(at i (j + 1))
                     -. (4. *. grid.(at i j)))
            done
          done;
          Array.blit next 0 grid 0 (w * w)
        done;
        (* Zero the ghost cells before summing (they replicate neighbor
           interiors). *)
        for i = 0 to w - 1 do
          grid.(at i 0) <- 0.;
          grid.(at i (w - 1)) <- 0.;
          grid.(at 0 i) <- 0.;
          grid.(at (w - 1) i) <- 0.
        done;
        let final_heat =
          Kamping_plugins.Repro_reduce.sum (Kamping.Communicator.of_mpi comm) grid
        in
        let local_max = Array.fold_left Float.max 0. grid in
        let global_max =
          Kamping.Collectives.allreduce_single
            (Kamping.Communicator.of_mpi comm)
            Datatype.float Reduce_op.float_max local_max
        in
        (initial_heat, final_heat, global_max))
  in
  (match results.(0) with
  | Some (h0, h1, mx) ->
      Printf.printf "heat: initial=%.3f final=%.3f (loss at open boundary) peak=%.3f\n" h0
        h1 mx;
      assert (h1 <= h0 +. 1e-6)
  | None -> ());
  Printf.printf "grid: %d ranks, %d iterations; simulated time %s\n" ranks iterations
    (Sim_time.to_string report.Engine.max_time)
