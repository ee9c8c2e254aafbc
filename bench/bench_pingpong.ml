(* Classic point-to-point microbenchmarks (OSU-style): ping-pong latency
   and streaming bandwidth over message sizes, plus collective latency
   over p.  These characterize the cost model itself — the substrate the
   paper-reproduction numbers rest on — so EXPERIMENTS.md can relate
   simulated shapes to the modelled alpha/beta. *)

open Mpisim

let pingpong ~model ~bytes ~iters : float =
  let report =
    Engine.run ~model ~clock_mode:Runtime.Virtual_only ~ranks:2 (fun comm ->
        let payload = Array.make bytes 'x' in
        if Comm.rank comm = 0 then
          for _ = 1 to iters do
            P2p.send comm Datatype.byte ~dest:1 payload;
            ignore (P2p.recv comm Datatype.byte ~source:1 ())
          done
        else
          for _ = 1 to iters do
            ignore (P2p.recv comm Datatype.byte ~source:0 ());
            P2p.send comm Datatype.byte ~dest:0 payload
          done)
  in
  (* one-way latency *)
  report.Engine.max_time /. float_of_int (2 * iters)

let bandwidth ~model ~bytes ~iters : float =
  let report =
    Engine.run ~model ~clock_mode:Runtime.Virtual_only ~ranks:2 (fun comm ->
        let payload = Array.make bytes 'x' in
        if Comm.rank comm = 0 then begin
          for _ = 1 to iters do
            P2p.send comm Datatype.byte ~dest:1 payload
          done;
          ignore (P2p.recv comm Datatype.byte ~source:1 ())
        end
        else begin
          for _ = 1 to iters do
            ignore (P2p.recv comm Datatype.byte ~source:0 ())
          done;
          P2p.send comm Datatype.byte ~dest:0 [| 'k' |]
        end)
  in
  float_of_int (bytes * iters) /. report.Engine.max_time

let coll_latency ~model ~ranks (which : [ `Barrier | `Allreduce | `Bcast ]) : float =
  let iters = 10 in
  let report =
    Engine.run ~model ~clock_mode:Runtime.Virtual_only ~ranks (fun comm ->
        for _ = 1 to iters do
          match which with
          | `Barrier -> Coll.barrier comm
          | `Allreduce ->
              ignore (Coll.allreduce_single comm Datatype.int Reduce_op.int_sum 1)
          | `Bcast ->
              ignore
                (Coll.bcast comm Datatype.int ~root:0
                   (if Comm.rank comm = 0 then Some [| 1 |] else None))
        done)
  in
  report.Engine.max_time /. float_of_int iters

(* Wall-clock cost of the data-movement plane itself: the identical
   ping-pong program over the bulk fast path (committed [byte] carries a
   kernel) and the same type forced onto the general per-element path
   ([Datatype.without_bulk]).  Zero-cost network, virtual-only clock — the
   measured time is real pack/unpack/mailbox CPU work, the component the
   zero-copy plane is supposed to shrink. *)
let pingpong_wall (dt : char Datatype.t) ~bytes ~iters () =
  ignore
    (Engine.run ~model:Net_model.zero_cost ~clock_mode:Runtime.Virtual_only ~ranks:2
       (fun comm ->
         let payload = Array.make bytes 'x' in
         if Comm.rank comm = 0 then
           for _ = 1 to iters do
             P2p.send comm dt ~dest:1 payload;
             ignore (P2p.recv comm dt ~source:1 ())
           done
         else
           for _ = 1 to iters do
             ignore (P2p.recv comm dt ~source:0 ());
             P2p.send comm dt ~dest:0 payload
           done))

let results_file = "BENCH_PINGPONG.json"

(* Minor words that one pack plus one unpack of a [bytes]-char message
   allocate on [dt]'s path, and how many per-element [pack]/[unpack]
   callbacks they make (0 on the bulk kernel, 2 * [bytes] on the general
   path).  Both are deterministic, so the regression gate pins them
   ([*_words], [*_calls]); the wall-clock ratio next to them is a host
   measurement ([wall_speedup], skipped by the gate). *)
let pack_unpack_cost (dt : char Datatype.t) ~bytes =
  let calls = ref 0 in
  let dt =
    {
      dt with
      Datatype.pack =
        (fun w c ->
          incr calls;
          dt.Datatype.pack w c);
      unpack =
        (fun r ->
          incr calls;
          dt.Datatype.unpack r);
    }
  in
  let payload = Array.make bytes 'x' and into = Array.make bytes ' ' in
  let w = Wire.create_writer ~capacity:bytes () in
  let cycle () =
    Wire.reset w;
    Datatype.pack_array dt w payload ~pos:0 ~count:bytes;
    let r = Wire.reader_of_slice (Wire.writer_storage w) ~pos:0 ~len:(Wire.length w) in
    Datatype.unpack_into dt r into ~pos:0 ~count:bytes
  in
  cycle ();
  calls := 0;
  let iters = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    cycle ()
  done;
  let words = Gc.minor_words () -. w0 in
  (words /. float_of_int iters, float_of_int !calls /. float_of_int iters)

let fast_path_series ~smoke =
  Printf.printf "\n-- wall clock: bulk fast path vs general per-element path --\n";
  let sizes = if smoke then [ 256; 4096 ] else [ 1024; 65536; 1048576 ] in
  let iters = if smoke then 32 else 20 in
  let runs = if smoke then 7 else 5 in
  let general = Datatype.without_bulk Datatype.byte in
  Bench_util.print_table
    ~header:
      [
        "bytes";
        "general (before)";
        "bulk (after)";
        "speedup";
        "words general/bulk";
        "calls general/bulk";
      ]
    (List.map
       (fun bytes ->
         let t_general, () =
           Bench_util.wall_median ~runs (pingpong_wall general ~bytes ~iters)
         in
         let t_fast, () =
           Bench_util.wall_median ~runs (pingpong_wall Datatype.byte ~bytes ~iters)
         in
         let w_general, c_general = pack_unpack_cost general ~bytes in
         let w_bulk, c_bulk = pack_unpack_cost Datatype.byte ~bytes in
         Bench_util.emit_json_file ~file:results_file ~bench:"pingpong_fast_path"
           [
             ("bytes", Bench_util.I bytes);
             ("iters", Bench_util.I iters);
             ("general_wall_seconds", Bench_util.F t_general);
             ("bulk_wall_seconds", Bench_util.F t_fast);
             ("wall_speedup", Bench_util.F (t_general /. t_fast));
             ("general_words", Bench_util.F w_general);
             ("bulk_words", Bench_util.F w_bulk);
             ("general_calls", Bench_util.F c_general);
             ("bulk_calls", Bench_util.F c_bulk);
           ];
         [
           string_of_int bytes;
           Printf.sprintf "%.2fms" (t_general *. 1e3);
           Printf.sprintf "%.2fms" (t_fast *. 1e3);
           Bench_util.speedup_string ~baseline:t_fast t_general;
           Printf.sprintf "%.1f / %.1f" w_general w_bulk;
           Printf.sprintf "%.0f / %.0f" c_general c_bulk;
         ])
       sizes)

(* Allocation per message on the ad-hoc and persistent point-to-point
   paths: exact minor-word counts of a 2-rank ping-pong of 64-byte
   messages after a warm-up.  Rank 0 reads the counter around its loop;
   rank 1 runs interleaved with it on the sequential scheduler, so the
   count covers both ranks' sends and receives.  Deterministic, so the
   regression gate pins the budget ([*_words] is lower-is-better). *)
let alloc_per_message (body : Comm.t -> int -> (unit -> unit) * (unit -> unit)) =
  let round_trips = 1000 in
  let words = ref 0. in
  ignore
    (Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only ~ranks:2
       (fun comm ->
         let me = Comm.rank comm in
         let send, recv = body comm (1 - me) in
         let go n =
           for _ = 1 to n do
             if me = 0 then begin
               send ();
               recv ()
             end
             else begin
               recv ();
               send ()
             end
           done
         in
         go 50;
         if me = 0 then begin
           let w0 = Gc.minor_words () in
           go round_trips;
           words := Gc.minor_words () -. w0
         end
         else go round_trips));
  !words /. float_of_int (2 * round_trips)

let p2p_alloc_series () =
  Printf.printf "\n-- minor words per 64-byte message (send + receive, both ranks) --\n";
  let bytes = 64 in
  let series =
    [
      ( "send_recv_into",
        fun comm peer ->
          let payload = Array.make bytes 'x' and into = Array.make bytes ' ' in
          ( (fun () -> P2p.send comm Datatype.byte ~dest:peer payload),
            fun () -> ignore (P2p.recv_into comm Datatype.byte ~source:peer into) ) );
      ( "send_recv",
        fun comm peer ->
          let payload = Array.make bytes 'x' in
          ( (fun () -> P2p.send comm Datatype.byte ~dest:peer payload),
            fun () -> ignore (P2p.recv comm Datatype.byte ~source:peer ()) ) );
      ( "send_init_recv_init",
        fun comm peer ->
          let payload = Array.make bytes 'x' and into = Array.make bytes ' ' in
          let s = P2p.send_init comm Datatype.byte ~dest:peer payload ~pos:0 ~count:bytes in
          let r = P2p.recv_init comm Datatype.byte ~source:peer into in
          let cycle req () =
            Request.start req;
            ignore (Request.wait req)
          in
          (cycle s, cycle r) );
    ]
  in
  Bench_util.print_table ~header:[ "path"; "words/message" ]
    (List.map
       (fun (name, body) ->
         let words = alloc_per_message body in
         Bench_util.emit_json_file ~file:results_file ~bench:"p2p_alloc"
           [
             ("series", Bench_util.S name);
             ("bytes", Bench_util.I bytes);
             ("msg_minor_words", Bench_util.F words);
           ];
         [ name; Printf.sprintf "%.1f" words ])
       series)

let run ?(model = Net_model.omnipath) ?(smoke = false) () =
  Bench_util.section
    (Printf.sprintf "Point-to-point and collective microbenchmarks (model: %s)"
       model.Net_model.name);
  Printf.printf "\n-- ping-pong latency / streaming bandwidth vs message size --\n";
  let sizes =
    if smoke then [ 64; 16384 ] else [ 1; 64; 1024; 16384; 262144; 4194304 ]
  in
  Bench_util.print_table
    ~header:[ "bytes"; "latency (one-way)"; "bandwidth" ]
    (List.map
       (fun bytes ->
         let lat = pingpong ~model ~bytes ~iters:10 in
         let bw = bandwidth ~model ~bytes ~iters:10 in
         let fields =
           [
             ("model", Bench_util.S model.Net_model.name);
             ("bytes", Bench_util.I bytes);
             ("latency_seconds", Bench_util.F lat);
             ("bandwidth_bytes_per_second", Bench_util.F bw);
           ]
         in
         Bench_util.emit_json ~bench:"pingpong" fields;
         Bench_util.emit_json_file ~file:results_file ~bench:"pingpong" fields;
         [
           string_of_int bytes;
           Bench_util.time_str lat;
           Printf.sprintf "%.2f GB/s" (bw /. 1e9);
         ])
       sizes);
  fast_path_series ~smoke;
  p2p_alloc_series ();
  Printf.printf
    "(Should approach the model: alpha = %.2gus, 1/beta = %.3g GB/s.)\n"
    (model.Net_model.latency *. 1e6)
    (1. /. model.Net_model.byte_time /. 1e9);
  Printf.printf "\n-- collective latency vs p (empty payloads) --\n";
  let ps = if smoke then [ 2; 8 ] else [ 2; 8; 32; 128 ] in
  Bench_util.print_table
    ~header:[ "p"; "barrier"; "allreduce"; "bcast" ]
    (List.map
       (fun p ->
         let barrier = coll_latency ~model ~ranks:p `Barrier in
         let allreduce = coll_latency ~model ~ranks:p `Allreduce in
         let bcast = coll_latency ~model ~ranks:p `Bcast in
         Bench_util.emit_json ~bench:"coll_latency"
           [
             ("model", Bench_util.S model.Net_model.name);
             ("p", Bench_util.I p);
             ("barrier_seconds", Bench_util.F barrier);
             ("allreduce_seconds", Bench_util.F allreduce);
             ("bcast_seconds", Bench_util.F bcast);
           ];
         [
           string_of_int p;
           Bench_util.time_str barrier;
           Bench_util.time_str allreduce;
           Bench_util.time_str bcast;
         ])
       ps)
