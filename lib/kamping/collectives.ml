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

let enter = Infer.enter

let leave = Infer.leave

let leave_raise = Infer.leave_raise

let exclusive_prefix_sum = Coll.exclusive_prefix_sum

(* ------------------------------------------------------------------ *)
(* Broadcast *)

(* Root passes [~data]; other ranks omit it and receive by value. *)
let bcast comm dt ~root ?data () : 'a array =
  let span = enter comm ~op:"bcast" in
  match Coll.bcast (c comm) dt ~root data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let bcast_single comm dt ~root ?value () : 'a =
  (bcast comm dt ~root ?data:(Option.map (fun v -> [| v |]) value) ()).(0)

(* ------------------------------------------------------------------ *)
(* Allgather *)

let allgather comm dt (send_buf : 'a array) : 'a array =
  let span = enter comm ~op:"allgather" in
  match Coll.allgather (c comm) dt send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* In-place allgather (the send_recv_buf idiom, §III-G): element [rank]
   of [buf] is this rank's contribution; all other slots are filled.  The
   array is modified in place and also returned for pipeline style. *)
let allgather_inplace comm dt (buf : 'a array) : 'a array =
  let n = Communicator.size comm in
  if Array.length buf mod n <> 0 then
    Errdefs.usage_error "allgather_inplace: buffer length %d not divisible by %d"
      (Array.length buf) n;
  let count = Array.length buf / n in
  let mine = Array.sub buf (Communicator.rank comm * count) count in
  let span = enter comm ~op:"allgather" in
  match Coll.allgather (c comm) dt mine with
  | gathered ->
      Array.blit gathered 0 buf 0 (Array.length buf);
      leave comm span buf
  | exception e -> leave_raise comm span e

(* ------------------------------------------------------------------ *)
(* Allgatherv *)

let allgatherv comm dt ?send_count ?recv_counts ?recv_displs (send_buf : 'a array) :
    'a array =
  (Infer.allgatherv comm dt ?send_count ?recv_counts ?recv_displs send_buf).recv_buf

(* ------------------------------------------------------------------ *)
(* Gather / Gatherv / Scatter / Scatterv *)

let gather comm dt ~root (send_buf : 'a array) : 'a array =
  let span = enter comm ~op:"gather" in
  match Coll.gather (c comm) dt ~root send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let gatherv comm dt ~root ?send_count ?recv_counts (send_buf : 'a array) : 'a array =
  (Infer.gatherv comm dt ~root ?send_count ?recv_counts send_buf).recv_buf

let scatter comm dt ~root ?data () : 'a array =
  let span = enter comm ~op:"scatter" in
  match Coll.scatter (c comm) dt ~root data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let scatterv comm dt ~root ?send_counts ?data () : 'a array =
  let span = enter comm ~op:"scatterv" in
  match Coll.scatterv (c comm) dt ~root ?send_counts data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* ------------------------------------------------------------------ *)
(* Alltoall / Alltoallv *)

let alltoall comm dt (send_buf : 'a array) : 'a array =
  let span = enter comm ~op:"alltoall" in
  match Coll.alltoall (c comm) dt send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let alltoallv comm dt ~send_counts ?send_displs ?recv_counts ?recv_displs
    (send_buf : 'a array) : 'a array =
  (Infer.alltoallv comm dt ~send_counts ?send_displs ?recv_counts ?recv_displs send_buf)
    .recv_buf

(* ------------------------------------------------------------------ *)
(* Reductions *)

let reduce comm dt op ~root (send_buf : 'a array) : 'a array =
  let span = enter comm ~op:"reduce" in
  match Coll.reduce (c comm) dt op ~root send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let allreduce comm dt op (send_buf : 'a array) : 'a array =
  let span = enter comm ~op:"allreduce" in
  match Coll.allreduce (c comm) dt op send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let allreduce_single comm dt op (x : 'a) : 'a =
  let span = enter comm ~op:"allreduce" in
  match Coll.allreduce_single (c comm) dt op x with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* KaMPIng-style defaulting: with no [recv_counts], split the vector as
   evenly as possible (first [len mod p] ranks get one extra element). *)
let even_split ~len ~size =
  Array.init size (fun r -> (len / size) + if r < len mod size then 1 else 0)

let reduce_scatter comm dt op ?recv_counts (send_buf : 'a array) : 'a array =
  let mpi = c comm in
  let recv_counts =
    match recv_counts with
    | Some rc -> rc
    | None -> even_split ~len:(Array.length send_buf) ~size:(Comm.size mpi)
  in
  let span = enter comm ~op:"reduce_scatter" in
  match Coll.reduce_scatter mpi dt op ~recv_counts send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let reduce_scatter_block comm dt op (send_buf : 'a array) : 'a array =
  let span = enter comm ~op:"reduce_scatter" in
  match Coll.reduce_scatter_block (c comm) dt op send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let scan comm dt op (send_buf : 'a array) : 'a array =
  let span = enter comm ~op:"scan" in
  match Coll.scan (c comm) dt op send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let scan_single comm dt op (x : 'a) : 'a =
  let span = enter comm ~op:"scan" in
  match Coll.scan_single (c comm) dt op x with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let exscan comm dt op (send_buf : 'a array) : 'a array option =
  let span = enter comm ~op:"exscan" in
  match Coll.exscan (c comm) dt op send_buf with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Exclusive prefix with an explicit value on rank 0 — avoids the
   undefined-on-rank-0 footgun of MPI_Exscan. *)
let exscan_single_or comm dt op ~(init : 'a) (x : 'a) : 'a =
  let span = enter comm ~op:"exscan" in
  match Coll.exscan_single (c comm) dt op x with
  | Some v -> leave comm span v
  | None -> leave comm span init
  | exception e -> leave_raise comm span e

let barrier comm =
  let span = enter comm ~op:"barrier" in
  match Coll.barrier (c comm) with
  | () -> leave comm span ()
  | exception e -> leave_raise comm span e
