(* The four workloads.  Every input is a pure function of the seed, the
   input slot and the rank, so each rank can also compute what every
   other rank sends and check its outputs against closed forms. *)

open Mpisim
open Harness

(* 62-bit mixing; inputs and checksums only. *)
let mix a b =
  let h = ((a * 0x2545F4914F6CDD1D) + b) land max_int in
  h lxor (h lsr 29)

let value seed slot a b = mix (mix (mix (mix seed slot) a) b) 0x5bd1e995 land 0xFFFFF

(* Order-sensitive Fletcher-style checksum: two adds per element. *)
let checksum_int (a : int array) =
  let s1 = ref 0 and s2 = ref 0 in
  for i = 0 to Array.length a - 1 do
    s1 := !s1 + Array.unsafe_get a i;
    s2 := !s2 + !s1
  done;
  mix !s1 !s2

let checksum_char (a : char array) =
  let s1 = ref 0 and s2 = ref 0 in
  for i = 0 to Array.length a - 1 do
    s1 := !s1 + Char.code (Array.unsafe_get a i);
    s2 := !s2 + !s1
  done;
  mix !s1 !s2

(* Deterministic Fisher-Yates shuffle of a copy of [a]. *)
let shuffle ~key a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = mix key i mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A step made of [k] input slots out of [k * cycle], spread evenly (step
   [s] runs slots [s], [s + cycle], ...), so every step gets a similar mix.
   Every slot runs on every rank even after a failed check, so collectives
   stay matched.  More work per step narrows the step-time distribution,
   which keeps its median and tail steady from run to run. *)
let bundle k ~cycle (steps : steps) : steps =
 fun v ->
  Option.map
    (fun f s ->
      let ok = ref true in
      for j = 0 to k - 1 do
        if not (f (s + (j * cycle))) then ok := false
      done;
      !ok)
    (steps v)

let span = Spans.register

let s_kamping_send = span "kamping.send"

let s_kamping_recv = span "kamping.recv"

let s_p2p_send = span "p2p.send"

let s_p2p_recv = span "p2p.recv"

let s_app_checksum = span "app.checksum"

let s_app_check = span "app.check"

(* ---- ping-pong ---- *)

(* Rank 0 sends, rank 1 checks and echoes, rank 0 checks the echo. *)
let pingpong (type a) (dt : a Datatype.t) ~(gen : int -> a) ~(checksum : a array -> int)
    ~count ~round_trips ~cycle ~seed mpi : steps =
  let comm = Kamping.Communicator.of_mpi mpi in
  let rank = Comm.rank mpi in
  let peer = 1 - rank in
  let payloads =
    Array.init cycle (fun s -> Array.init count (fun i -> gen (value seed s 0 i)))
  in
  let sums = Array.map checksum payloads in
  let exchange ~send ~recv ~sum slot =
    let ok = ref true in
    let p = payloads.(slot) and want = sums.(slot) in
    for _ = 1 to round_trips do
      if rank = 0 then begin
        send p;
        if sum (recv ()) <> want then ok := false
      end
      else begin
        let got = recv () in
        if sum got <> want then ok := false;
        send got
      end
    done;
    !ok
  in
  let direct =
    exchange ~sum:checksum
      ~send:(fun a -> Kamping.P2p.send comm dt ~dest:peer a)
      ~recv:(fun () -> Kamping.P2p.recv comm dt ~source:peer ())
  in
  let spanned_sum a = Spans.record s_app_checksum ~rank (fun () -> checksum a) in
  let traced =
    exchange ~sum:spanned_sum
      ~send:(fun a ->
        Spans.record s_kamping_send ~rank (fun () -> Kamping.P2p.send comm dt ~dest:peer a))
      ~recv:(fun () ->
        Spans.record s_kamping_recv ~rank (fun () -> Kamping.P2p.recv comm dt ~source:peer ()))
  in
  let raw =
    exchange ~sum:spanned_sum
      ~send:(fun a -> Spans.record s_p2p_send ~rank (fun () -> P2p.send mpi dt ~dest:peer a))
      ~recv:(fun () ->
        Spans.record s_p2p_recv ~rank (fun () -> fst (P2p.recv mpi dt ~source:peer ())))
  in
  function
  | Kamping -> Some direct
  | Kamping_traced -> Some traced
  | Raw -> Some raw
  | Explicit | Named | Raw_exchange -> None

let pingpong_small =
  {
    name = "pingpong_small";
    ranks = 2;
    cycle = 8;
    prepare =
      (fun ~seed mpi ->
        pingpong Datatype.byte
          ~gen:(fun v -> Char.unsafe_chr (v land 255))
          ~checksum:checksum_char ~count:64 ~round_trips:100 ~cycle:8 ~seed mpi);
    user_send_ops = [ "send" ];
    payload = `Byte;
    op_types = [ ("send", Dt Datatype.byte); ("recv", Dt Datatype.byte) ];
    wildcard_recv = `Tag;
    variants = [ Kamping_traced; Raw ];
  }

(* Four round trips per step rather than one: a step then usually spans
   a major-GC slice of the large receive arrays, which keeps the step-time
   tail (p90) from swinging with where the slices fall. *)
let pingpong_bulk =
  {
    name = "pingpong_bulk";
    ranks = 2;
    cycle = 4;
    prepare =
      (fun ~seed mpi ->
        pingpong Datatype.int ~gen:Fun.id ~checksum:checksum_int ~count:32_768 ~round_trips:4
          ~cycle:4 ~seed mpi);
    user_send_ops = [ "send" ];
    payload = `Int;
    op_types = [ ("send", Dt Datatype.int); ("recv", Dt Datatype.int) ];
    wildcard_recv = `Tag;
    variants = [ Kamping_traced; Raw ];
  }

(* ---- coll_kamping: one BSP superstep of three collectives ---- *)

let s_k_allgatherv = span "kamping.allgatherv"

let s_k_allreduce = span "kamping.allreduce"

let s_k_alltoallv = span "kamping.alltoallv"

let s_c_allgatherv = span "coll.allgatherv"

let s_c_allreduce = span "coll.allreduce"

let s_c_alltoallv = span "coll.alltoallv"

let coll_ranks = 16

let coll_cycle = 32

let allreduce_len = 256

(* Every slot permutes the same multisets, so the volume of a step does
   not depend on the seed while who sends how much does: allgatherv
   contributions evenly spread over 16..1024 ints, alltoallv blocks over
   0..120 ints per destination. *)
let allgatherv_sizes = Array.init coll_ranks (fun r -> 16 + (r * (1024 - 16) / (coll_ranks - 1)))

let alltoallv_sizes = Array.init coll_ranks (fun d -> 8 * d)

let coll_prepare ~seed mpi : steps =
  let comm = Kamping.Communicator.of_mpi mpi in
  let p = coll_ranks in
  let me = Comm.rank mpi in
  let cycle = coll_cycle in
  let ag_counts = Array.init cycle (fun s -> shuffle ~key:(mix seed s) allgatherv_sizes) in
  (* a2a.(s).(src).(dst): elements src sends to dst in slot s *)
  let a2a =
    Array.init cycle (fun s ->
        Array.init p (fun src -> shuffle ~key:(mix (mix seed s) (src + 1)) alltoallv_sizes))
  in
  let ag_value s r i = value seed s r i in
  let ar_value s r i = value seed s (r + 1000) i in
  let a2a_value s src dst i = value seed s ((src * p) + dst + 2000) i in
  let ag_send = Array.init cycle (fun s -> Array.init ag_counts.(s).(me) (ag_value s me)) in
  let ag_displs = Array.map Coll.exclusive_prefix_sum ag_counts in
  let ar_send = Array.init cycle (fun s -> Array.init allreduce_len (ar_value s me)) in
  let send_counts = Array.init cycle (fun s -> a2a.(s).(me)) in
  let send_displs = Array.map Coll.exclusive_prefix_sum send_counts in
  let recv_counts = Array.init cycle (fun s -> Array.init p (fun src -> a2a.(s).(src).(me))) in
  let recv_displs = Array.map Coll.exclusive_prefix_sum recv_counts in
  let a2a_send =
    Array.init cycle (fun s ->
        Array.concat
          (List.init p (fun dst -> Array.init a2a.(s).(me).(dst) (a2a_value s me dst))))
  in
  (* Closed forms of the outputs. *)
  let ag_expected =
    Array.init cycle (fun s ->
        checksum_int (Array.concat (List.init p (fun r -> Array.init ag_counts.(s).(r) (ag_value s r)))))
  in
  let ag_len = Array.map (Array.fold_left ( + ) 0) ag_counts in
  let ar_expected =
    Array.init cycle (fun s ->
        Array.init allreduce_len (fun i ->
            let acc = ref 0 in
            for r = 0 to p - 1 do
              acc := !acc + ar_value s r i
            done;
            !acc))
  in
  let a2a_expected =
    Array.init cycle (fun s ->
        checksum_int
          (Array.concat (List.init p (fun src -> Array.init a2a.(s).(src).(me) (a2a_value s src me)))))
  in
  let a2a_len = Array.map (Array.fold_left ( + ) 0) recv_counts in
  let check s g r a =
    Array.length g = ag_len.(s)
    && checksum_int g = ag_expected.(s)
    && r = ar_expected.(s)
    && Array.length a = a2a_len.(s)
    && checksum_int a = a2a_expected.(s)
  in
  let sum = Reduce_op.int_sum and int = Datatype.int in
  let rank = Comm.world_rank mpi in
  let sp id f = Spans.record id ~rank f in
  let checked s g r a = sp s_app_check (fun () -> check s g r a) in
  let direct s =
    let g = Kamping.Collectives.allgatherv comm int ag_send.(s) in
    let r = Kamping.Collectives.allreduce comm int sum ar_send.(s) in
    let a = Kamping.Collectives.alltoallv comm int ~send_counts:send_counts.(s) a2a_send.(s) in
    check s g r a
  in
  let traced s =
    let g = sp s_k_allgatherv (fun () -> Kamping.Collectives.allgatherv comm int ag_send.(s)) in
    let r = sp s_k_allreduce (fun () -> Kamping.Collectives.allreduce comm int sum ar_send.(s)) in
    let a =
      sp s_k_alltoallv (fun () ->
          Kamping.Collectives.alltoallv comm int ~send_counts:send_counts.(s) a2a_send.(s))
    in
    checked s g r a
  in
  let explicit s =
    let g =
      sp s_k_allgatherv (fun () ->
          Kamping.Collectives.allgatherv comm int ~recv_counts:ag_counts.(s)
            ~recv_displs:ag_displs.(s) ag_send.(s))
    in
    let r = sp s_k_allreduce (fun () -> Kamping.Collectives.allreduce comm int sum ar_send.(s)) in
    let a =
      sp s_k_alltoallv (fun () ->
          Kamping.Collectives.alltoallv comm int ~send_counts:send_counts.(s)
            ~send_displs:send_displs.(s) ~recv_counts:recv_counts.(s)
            ~recv_displs:recv_displs.(s) a2a_send.(s))
    in
    checked s g r a
  in
  let named s =
    let module N = Kamping.Named in
    let g =
      sp s_k_allgatherv (fun () ->
          N.extract_recv_buf
            (N.allgatherv comm int
               [ N.send_buf ag_send.(s); N.recv_counts ag_counts.(s); N.recv_displs ag_displs.(s) ]))
    in
    let r =
      sp s_k_allreduce (fun () ->
          N.extract_recv_buf (N.allreduce comm int [ N.send_buf ar_send.(s); N.op sum ]))
    in
    let a =
      sp s_k_alltoallv (fun () ->
          N.extract_recv_buf
            (N.alltoallv comm int
               [
                 N.send_buf a2a_send.(s);
                 N.send_counts send_counts.(s);
                 N.send_displs send_displs.(s);
                 N.recv_counts recv_counts.(s);
                 N.recv_displs recv_displs.(s);
               ]))
    in
    checked s g r a
  in
  let raw ~exchange s =
    let g =
      sp s_c_allgatherv (fun () ->
          let rc =
            if exchange then Coll.allgather mpi int [| Array.length ag_send.(s) |]
            else ag_counts.(s)
          in
          Coll.allgatherv mpi int ~recv_counts:rc ag_send.(s))
    in
    let r = sp s_c_allreduce (fun () -> Coll.allreduce mpi int sum ar_send.(s)) in
    let a =
      sp s_c_alltoallv (fun () ->
          let rc = if exchange then Coll.alltoall mpi int send_counts.(s) else recv_counts.(s) in
          Coll.alltoallv mpi int ~send_counts:send_counts.(s) ~send_displs:send_displs.(s)
            ~recv_counts:rc
            ~recv_displs:(if exchange then Coll.exclusive_prefix_sum rc else recv_displs.(s))
            a2a_send.(s))
    in
    checked s g r a
  in
  function
  | Kamping -> Some direct
  | Kamping_traced -> Some traced
  | Explicit -> Some explicit
  | Named -> Some named
  | Raw -> Some (raw ~exchange:false)
  | Raw_exchange -> Some (raw ~exchange:true)

(* One step is four supersteps, over four of the input slots. *)
let coll_per_step = 4

let coll_kamping =
  {
    name = "coll_kamping";
    ranks = coll_ranks;
    cycle = coll_cycle / coll_per_step;
    prepare =
      (fun ~seed mpi ->
        bundle coll_per_step ~cycle:(coll_cycle / coll_per_step) (coll_prepare ~seed mpi));
    user_send_ops = [];
    payload = `Int;
    op_types =
      List.map (fun op -> (op, Dt Datatype.int))
        [ "allgatherv"; "allgather"; "allreduce"; "alltoallv"; "alltoall" ];
    wildcard_recv = `None;
    variants = [ Kamping_traced; Raw; Explicit; Named; Raw_exchange ];
  }

(* ---- bfs_rgg_sparse: sparse (NBX) BFS on a 2-D random geometric graph ---- *)

let s_k_allreduce_single = span "kamping.allreduce_single"

let s_c_allreduce_single = span "coll.allreduce_single"

let s_plugin_sparse = span "plugins.sparse_alltoall"

let s_app_expand = span "app.expand_frontier"

let s_app_relax = span "app.relax_received"

let s_app_init = span "app.init_state"

let bfs_ranks = 16

let bfs_vertices_per_rank = 2048

(* One source per rank's vertex range, so every seed spreads its sources
   over the whole graph. *)
let bfs_cycle = bfs_ranks

(* The driver of [Bfs.Exchangers.bfs] with the [Sparse] exchanger, written
   out so each call into a layer can carry a span; [raw] replaces the
   binding's termination allreduce by the raw collective. *)
let bfs_spanned mpi g ~source ~raw =
  let comm = Kamping.Communicator.of_mpi mpi in
  let rank = Comm.world_rank mpi in
  let dist, frontier0 =
    Spans.record s_app_init ~rank (fun () -> Bfs.Common.initial_state g ~source)
  in
  let frontier = ref frontier0 in
  let level = ref 0 in
  let globally_empty f =
    if raw then
      Spans.record s_c_allreduce_single ~rank (fun () ->
          Coll.allreduce_single mpi Datatype.bool Reduce_op.bool_and (f = []))
    else
      Spans.record s_k_allreduce_single ~rank (fun () ->
          Kamping.Collectives.allreduce_single comm Datatype.bool Reduce_op.bool_and (f = []))
  in
  while not (globally_empty !frontier) do
    let next_local, outgoing =
      Spans.record s_app_expand ~rank (fun () ->
          let next_local, buckets =
            Bfs.Common.expand_frontier g dist !frontier ~level:!level
          in
          ( next_local,
            Hashtbl.fold (fun dest vs acc -> (dest, Array.of_list (List.rev vs)) :: acc) buckets []
          ))
    in
    let incoming =
      Spans.record s_plugin_sparse ~rank (fun () ->
          Kamping_plugins.Sparse_alltoall.alltoallv comm Datatype.int outgoing)
    in
    Spans.record s_app_relax ~rank (fun () ->
        Bfs.Common.relax_received g dist (Array.concat (List.map snd incoming)) ~level:!level
          next_local);
    frontier := !next_local;
    incr level
  done;
  dist

let bfs_prepare ~seed mpi : steps =
  let comm = Kamping.Communicator.of_mpi mpi in
  let g = Graphgen.Rgg2d.generate comm ~n_per_rank:bfs_vertices_per_rank ~seed () in
  let n = Graphgen.Distgraph.n_global g in
  let chunk = Graphgen.Distgraph.chunk_size ~n_global:n ~comm_size:bfs_ranks in
  let sources =
    Array.init bfs_cycle (fun s -> min (n - 1) ((s * chunk) + (mix seed s mod chunk)))
  in
  let reference =
    Array.map
      (fun source -> Bfs.Exchangers.bfs mpi g ~source ~exchanger:Bfs.Exchangers.Dense_mpi)
      sources
  in
  let direct s =
    Bfs.Exchangers.bfs mpi g ~source:sources.(s) ~exchanger:Bfs.Exchangers.Sparse = reference.(s)
  in
  let rank = Comm.world_rank mpi in
  let spanned ~raw s =
    let dist = bfs_spanned mpi g ~source:sources.(s) ~raw in
    Spans.record s_app_check ~rank (fun () -> dist = reference.(s))
  in
  function
  | Kamping -> Some direct
  | Kamping_traced -> Some (spanned ~raw:false)
  | Raw -> Some (spanned ~raw:true)
  | Explicit | Named | Raw_exchange -> None

(* One step is four BFS runs, from the sources of four stripes spread
   over the graph. *)
let bfs_per_step = 4

let bfs_rgg_sparse =
  {
    name = "bfs_rgg_sparse";
    ranks = bfs_ranks;
    cycle = bfs_cycle / bfs_per_step;
    prepare =
      (fun ~seed mpi ->
        bundle bfs_per_step ~cycle:(bfs_cycle / bfs_per_step) (bfs_prepare ~seed mpi));
    user_send_ops = [ "issend" ];
    payload = `Int;
    op_types =
      [ ("issend", Dt Datatype.int); ("recv", Dt Datatype.int); ("allreduce", Dt Datatype.bool) ];
    wildcard_recv = `Source;
    variants = [ Kamping_traced; Raw ];
  }

let all = [ pingpong_small; pingpong_bulk; coll_kamping; bfs_rgg_sparse ]
