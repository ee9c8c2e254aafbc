(* High-level collectives with default-parameter computation (paper §III-A,
   §III-B).

   OCaml's optional labelled arguments play the role of KaMPIng's named
   parameters: every MPI-level argument can be supplied — in any order, by
   name — and every omitted argument is computed by the library, using
   extra communication only when unavoidable:

   - send counts default to the length of the send buffer;
   - receive counts of [allgatherv] default to an allgather of the send
     counts; of [alltoallv] to an alltoall of the send counts; of [gatherv]
     to a gather of the send counts;
   - displacements default to the exclusive prefix sum of the counts.

   Each operation comes in up to three forms:
   - [op]: returns the receive buffer by value (the paper's F.20 rule);
   - [op_full]: additionally returns the computed out-parameters in a
     result record with [extract_*] accessors (§III-B);
   - [op_into]: writes into a caller-supplied {!Vec.t} under a
     {!Resize_policy.t}, for allocation-free steady states (§III-C).

   When the caller supplies every parameter, exactly one underlying
   runtime collective is issued and no auxiliary allocation happens — the
   zero-overhead path, checked by the profiling tests. *)

open Mpisim

type comm = Communicator.t

let c = Communicator.mpi

(* Trace span around one binding-layer call.  Wrappers shadow the [_full]
   variants (and direct entry points) below, so any default-parameter
   communication — e.g. the count allgather of [allgatherv] — shows up
   inside the kamping span, nested above the underlying [Coll] spans. *)
let traced comm ~op f =
  let mpi = c comm in
  Runtime.with_span (Comm.runtime mpi) (Comm.world_rank mpi) ~cat:"kamping" ~name:op f

(* Result record for vector collectives, with paper-style extractors. *)
type 'a vector_result = {
  recv_buf : 'a array;
  recv_counts : int array;
  recv_displs : int array;
}

let extract_recv_buf r = r.recv_buf

let extract_recv_counts r = r.recv_counts

let extract_recv_displs r = r.recv_displs

let exclusive_prefix_sum = Coll.exclusive_prefix_sum

(* ------------------------------------------------------------------ *)
(* Broadcast *)

(* Root passes [~data]; other ranks omit it and receive by value. *)
let bcast comm dt ~root ?data () : 'a array =
  traced comm ~op:"bcast" (fun () -> Coll.bcast (c comm) dt ~root data)

let bcast_single comm dt ~root ?value () : 'a =
  traced comm ~op:"bcast" (fun () ->
      (Coll.bcast (c comm) dt ~root (Option.map (fun v -> [| v |]) value)).(0))

(* ------------------------------------------------------------------ *)
(* Allgather *)

let allgather comm dt (send_buf : 'a array) : 'a array =
  traced comm ~op:"allgather" (fun () -> Coll.allgather (c comm) dt send_buf)

(* In-place allgather (the send_recv_buf idiom, §III-G): element [rank]
   of [buf] is this rank's contribution; all other slots are filled.  The
   array is modified in place and also returned for pipeline style. *)
let allgather_inplace comm dt (buf : 'a array) : 'a array =
  traced comm ~op:"allgather" @@ fun () ->
  let n = Communicator.size comm in
  if Array.length buf mod n <> 0 then
    Errdefs.usage_error "allgather_inplace: buffer length %d not divisible by %d"
      (Array.length buf) n;
  let count = Array.length buf / n in
  let mine = Array.sub buf (Communicator.rank comm * count) count in
  let gathered = Coll.allgather (c comm) dt mine in
  Array.blit gathered 0 buf 0 (Array.length buf);
  buf

(* ------------------------------------------------------------------ *)
(* Allgatherv *)

let allgatherv_full comm dt ?send_count ?recv_counts ?recv_displs (send_buf : 'a array) :
    'a vector_result =
  traced comm ~op:"allgatherv" @@ fun () ->
  let mpi = c comm in
  let send_count = match send_count with Some s -> s | None -> Array.length send_buf in
  let send_view =
    if send_count = Array.length send_buf then send_buf else Array.sub send_buf 0 send_count
  in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None -> Coll.allgather mpi Datatype.int [| send_count |]
  in
  let recv_displs =
    match recv_displs with Some d -> d | None -> exclusive_prefix_sum recv_counts
  in
  let recv_buf = Coll.allgatherv mpi dt ~recv_counts send_view in
  { recv_buf; recv_counts; recv_displs }

let allgatherv comm dt ?send_count ?recv_counts ?recv_displs (send_buf : 'a array) :
    'a array =
  (allgatherv_full comm dt ?send_count ?recv_counts ?recv_displs send_buf).recv_buf

let allgatherv_into comm dt ?(policy = Resize_policy.default) ?send_count ?recv_counts
    ~(recv_buf : 'a Vec.t) (send_buf : 'a array) : unit =
  let r = allgatherv_full comm dt ?send_count ?recv_counts send_buf in
  Vec.write_array policy recv_buf r.recv_buf

(* ------------------------------------------------------------------ *)
(* Gather / Gatherv / Scatter / Scatterv *)

let gather comm dt ~root (send_buf : 'a array) : 'a array =
  traced comm ~op:"gather" (fun () -> Coll.gather (c comm) dt ~root send_buf)

let gatherv_full comm dt ~root ?send_count ?recv_counts (send_buf : 'a array) :
    'a vector_result =
  traced comm ~op:"gatherv" @@ fun () ->
  let mpi = c comm in
  let send_count = match send_count with Some s -> s | None -> Array.length send_buf in
  let send_view =
    if send_count = Array.length send_buf then send_buf else Array.sub send_buf 0 send_count
  in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None ->
        (* One extra gather of the counts; only the root keeps it. *)
        Coll.gather mpi Datatype.int ~root [| send_count |]
  in
  let is_root = Communicator.rank comm = root in
  let recv_buf =
    if is_root then Coll.gatherv mpi dt ~root ~recv_counts send_view
    else Coll.gatherv mpi dt ~root send_view
  in
  let recv_displs = if is_root then exclusive_prefix_sum recv_counts else [||] in
  { recv_buf; recv_counts; recv_displs }

let gatherv comm dt ~root ?send_count ?recv_counts (send_buf : 'a array) : 'a array =
  (gatherv_full comm dt ~root ?send_count ?recv_counts send_buf).recv_buf

let scatter comm dt ~root ?data () : 'a array =
  traced comm ~op:"scatter" (fun () -> Coll.scatter (c comm) dt ~root data)

let scatterv comm dt ~root ?send_counts ?data () : 'a array =
  traced comm ~op:"scatterv" (fun () -> Coll.scatterv (c comm) dt ~root ?send_counts data)

(* ------------------------------------------------------------------ *)
(* Alltoall / Alltoallv *)

let alltoall comm dt (send_buf : 'a array) : 'a array =
  traced comm ~op:"alltoall" (fun () -> Coll.alltoall (c comm) dt send_buf)

let alltoallv_full comm dt ~(send_counts : int array) ?send_displs ?recv_counts
    ?recv_displs (send_buf : 'a array) : 'a vector_result =
  traced comm ~op:"alltoallv" @@ fun () ->
  let mpi = c comm in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None -> Coll.alltoall mpi Datatype.int send_counts
  in
  let recv_displs =
    match recv_displs with Some d -> d | None -> exclusive_prefix_sum recv_counts
  in
  let send_displs =
    match send_displs with Some d -> d | None -> exclusive_prefix_sum send_counts
  in
  let recv_buf =
    Coll.alltoallv mpi dt ~send_counts ~send_displs ~recv_counts ~recv_displs send_buf
  in
  { recv_buf; recv_counts; recv_displs }

let alltoallv comm dt ~send_counts ?send_displs ?recv_counts ?recv_displs
    (send_buf : 'a array) : 'a array =
  (alltoallv_full comm dt ~send_counts ?send_displs ?recv_counts ?recv_displs send_buf)
    .recv_buf

let alltoallv_into comm dt ?(policy = Resize_policy.default) ~send_counts ?recv_counts
    ~(recv_buf : 'a Vec.t) (send_buf : 'a array) : unit =
  let r = alltoallv_full comm dt ~send_counts ?recv_counts send_buf in
  Vec.write_array policy recv_buf r.recv_buf

(* ------------------------------------------------------------------ *)
(* Reductions *)

let reduce comm dt op ~root (send_buf : 'a array) : 'a array =
  traced comm ~op:"reduce" (fun () -> Coll.reduce (c comm) dt op ~root send_buf)

let allreduce comm dt op (send_buf : 'a array) : 'a array =
  traced comm ~op:"allreduce" (fun () -> Coll.allreduce (c comm) dt op send_buf)

let allreduce_single comm dt op (x : 'a) : 'a =
  traced comm ~op:"allreduce" (fun () -> Coll.allreduce_single (c comm) dt op x)

(* KaMPIng-style defaulting: with no [recv_counts], split the vector as
   evenly as possible (first [len mod p] ranks get one extra element). *)
let even_split ~len ~size =
  Array.init size (fun r -> (len / size) + if r < len mod size then 1 else 0)

let reduce_scatter comm dt op ?recv_counts (send_buf : 'a array) : 'a array =
  traced comm ~op:"reduce_scatter" (fun () ->
      let mpi = c comm in
      let recv_counts =
        match recv_counts with
        | Some rc -> rc
        | None -> even_split ~len:(Array.length send_buf) ~size:(Comm.size mpi)
      in
      Coll.reduce_scatter mpi dt op ~recv_counts send_buf)

let reduce_scatter_block comm dt op (send_buf : 'a array) : 'a array =
  traced comm ~op:"reduce_scatter" (fun () -> Coll.reduce_scatter_block (c comm) dt op send_buf)

let scan comm dt op (send_buf : 'a array) : 'a array =
  traced comm ~op:"scan" (fun () -> Coll.scan (c comm) dt op send_buf)

let scan_single comm dt op (x : 'a) : 'a =
  traced comm ~op:"scan" (fun () -> Coll.scan_single (c comm) dt op x)

let exscan comm dt op (send_buf : 'a array) : 'a array option =
  traced comm ~op:"exscan" (fun () -> Coll.exscan (c comm) dt op send_buf)

(* Exclusive prefix with an explicit value on rank 0 — avoids the
   undefined-on-rank-0 footgun of MPI_Exscan. *)
let exscan_or comm dt op ~(init : 'a array) (send_buf : 'a array) : 'a array =
  match exscan comm dt op send_buf with Some v -> v | None -> init

let exscan_single_or comm dt op ~(init : 'a) (x : 'a) : 'a =
  traced comm ~op:"exscan" (fun () ->
      match Coll.exscan_single (c comm) dt op x with Some v -> v | None -> init)

let barrier comm = traced comm ~op:"barrier" (fun () -> Coll.barrier (c comm))
