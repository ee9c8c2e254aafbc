(* High-level collectives with default-parameter computation (paper §III-A,
   §III-B).

   OCaml's optional labelled arguments play the role of KaMPIng's named
   parameters: every MPI-level argument can be supplied — in any order, by
   name — and every omitted argument is computed by the library, using
   extra communication only when unavoidable (the count inference of the
   vector collectives lives in [Infer], shared with {!Named}).  Each
   operation returns its receive buffer by value (the paper's F.20 rule);
   result objects with out-parameters (§III-B) and caller-supplied receive
   buffers (§III-C) are spelled through {!Named}.

   When the caller supplies every parameter, exactly one underlying
   runtime collective is issued and no auxiliary allocation happens — the
   zero-overhead path, checked by the profiling tests. *)

open Mpisim

type comm = Communicator.t

let c = Communicator.mpi

let traced = Infer.traced

let exclusive_prefix_sum = Coll.exclusive_prefix_sum

(* ------------------------------------------------------------------ *)
(* Broadcast *)

(* Root passes [~data]; other ranks omit it and receive by value. *)
let bcast comm dt ~root ?data () : 'a array =
  traced comm ~op:"bcast" (fun () -> Coll.bcast (c comm) dt ~root data)

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

let allgatherv comm dt ?send_count ?recv_counts ?recv_displs (send_buf : 'a array) :
    'a array =
  (Infer.allgatherv comm dt ?send_count ?recv_counts ?recv_displs send_buf).recv_buf

(* ------------------------------------------------------------------ *)
(* Gather / Gatherv / Scatter / Scatterv *)

let gather comm dt ~root (send_buf : 'a array) : 'a array =
  traced comm ~op:"gather" (fun () -> Coll.gather (c comm) dt ~root send_buf)

let gatherv comm dt ~root ?send_count ?recv_counts (send_buf : 'a array) : 'a array =
  (Infer.gatherv comm dt ~root ?send_count ?recv_counts send_buf).recv_buf

let scatter comm dt ~root ?data () : 'a array =
  traced comm ~op:"scatter" (fun () -> Coll.scatter (c comm) dt ~root data)

let scatterv comm dt ~root ?send_counts ?data () : 'a array =
  traced comm ~op:"scatterv" (fun () -> Coll.scatterv (c comm) dt ~root ?send_counts data)

(* ------------------------------------------------------------------ *)
(* Alltoall / Alltoallv *)

let alltoall comm dt (send_buf : 'a array) : 'a array =
  traced comm ~op:"alltoall" (fun () -> Coll.alltoall (c comm) dt send_buf)

let alltoallv comm dt ~send_counts ?send_displs ?recv_counts ?recv_displs
    (send_buf : 'a array) : 'a array =
  (Infer.alltoallv comm dt ~send_counts ?send_displs ?recv_counts ?recv_displs send_buf)
    .recv_buf

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
let exscan_single_or comm dt op ~(init : 'a) (x : 'a) : 'a =
  traced comm ~op:"exscan" (fun () ->
      match Coll.exscan_single (c comm) dt op x with Some v -> v | None -> init)

let barrier comm = traced comm ~op:"barrier" (fun () -> Coll.barrier (c comm))
