(* High-level persistent operations (MPI-4 surface, paper §III).

   The binding layer's job is the same as everywhere else: compute the
   parameters MPI makes the caller spell out.  [send_init] defaults to
   the whole buffer; [reduce_scatter_init] defaults [recv_counts] to an
   equal split.  All per-call setup (algorithm selection, datatype plan,
   counter handles, working buffers) is paid once at init, so the
   [Request.start]/[Request.wait] cycle adds no binding-layer overhead on
   top of the transport. *)

open Mpisim

type comm = Communicator.t

let c = Communicator.mpi

let send_init comm dt ~dest ?tag (data : 'a array) : Request.t =
  P2p.send_init (c comm) dt ~dest ?tag data ~pos:0 ~count:(Array.length data)

let recv_init comm dt ?source ?tag (into : 'a array) : Request.t =
  P2p.recv_init (c comm) dt ?source ?tag into

let bcast_init comm dt ?root (buf : 'a array) : Request.t =
  let root = Option.value root ~default:0 in
  Coll.bcast_init (c comm) dt ~root buf

let allreduce_init comm dt op ~src ~dst : Request.t =
  Coll.allreduce_init (c comm) dt op ~src ~dst

(* [recv_counts] defaults to the even split of the other reduce-scatters. *)
let reduce_scatter_init comm dt op ?recv_counts ~(src : 'a array) ~(dst : 'a array) () :
    Request.t =
  let mpi = c comm in
  let recv_counts =
    match recv_counts with
    | Some counts -> counts
    | None -> Collectives.even_split ~len:(Array.length src) ~size:(Comm.size mpi)
  in
  Coll.reduce_scatter_init mpi dt op ~recv_counts ~src ~dst
