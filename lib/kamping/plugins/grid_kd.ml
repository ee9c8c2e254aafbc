(* Grid all-to-all (Kalé et al. [34]) — the GridCommunicator plugin of
   paper §V-A for k = 2, and its generalization to k dimensions that the
   paper lists as work in progress (§VI: "generalizing the indirection
   patterns for all-to-all primitives to higher dimensions, while also
   incorporating message aggregation").

   Ranks are laid out in a k-dimensional grid with near-equal extents
   d_1 * d_2 * ... * d_k = p, listed slowest to fastest: rank r's
   coordinate in a dimension of stride s and extent e is r / s mod e.  A
   message travels k hops, correcting one coordinate per hop, fastest
   first.  For k = 2 (a rows x cols grid) a message from r to d goes

     r --(hop 1: within r's row, to the member in d's column)-->
       intermediate --(hop 2: within d's column)--> d

   Each hop is an alltoallv on a subcommunicator of size d_i, so a rank
   pays O(sum d_i) = O(k * p^(1/k)) message startups and count-scan work
   per exchange instead of O(p) — the hardware-agnostic latency reduction
   with asymptotic guarantees the paper highlights.  Every hop aggregates
   all traffic with the same next hop into a single message (the
   aggregation the paper mentions: many final destinations share each
   intermediate).

   The price is header volume (each element carries its final destination)
   and k-fold forwarding of the payload bytes — the classic latency /
   volume trade.  k = 1 degenerates to a direct dense exchange.

   Grid shape: we require full rows (p is the exact product of the
   extents), choosing each extent from the fastest dimension on as the
   largest divisor of what remains of p not exceeding its near-equal share
   — for k = 2, cols is the largest divisor of p not exceeding ceil(sqrt p).
   For the powers of two used in scaling experiments this gives an exact
   near-square grid.  (The reference implementation also handles ragged
   grids; we document the restriction instead.)  For prime p every
   extent but the slowest is 1 and the exchange reduces to a direct
   alltoallv.

   Like indirect personalized communication in general, the result does not
   identify original senders; payloads must carry whatever provenance the
   application needs. *)

open Mpisim

(* One hop corrects the coordinate of stride [stride] and extent [extent]
   within [sub], the ranks that agree with this one on every other
   coordinate; [sub]'s rank order is that coordinate. *)
type hop = { stride : int; extent : int; sub : Kamping.Communicator.t }

type t = {
  comm : Kamping.Communicator.t;
  dims : int array;  (* extents, slowest to fastest, product = p *)
  hops : hop array;  (* fastest dimension first *)
}

(* Factor p into k near-equal extents, choosing the fastest dimension's
   first (exact factorization: the slowest takes what remains; extents of 1
   are allowed when p has too few factors). *)
let factorize ~k p =
  let dims = Array.make k 1 in
  let remaining = ref p in
  for i = k - 1 downto 0 do
    let share = float_of_int !remaining ** (1. /. float_of_int (i + 1)) in
    let target = int_of_float (ceil share) in
    (* Largest divisor of remaining that is <= target, >= 1. *)
    let rec best c = if c <= 1 then 1 else if !remaining mod c = 0 then c else best (c - 1) in
    let d = best target in
    dims.(i) <- d;
    remaining := !remaining / d
  done;
  dims

(* Collective: builds one subcommunicator per hop, in hop order.  A hop's
   split color is the index of this rank with the hop's coordinate removed,
   numbered on from the previous hop's colors — for k = 2, [row] and then
   [rows + col]. *)
let create ~k (comm : Kamping.Communicator.t) : t =
  if k < 1 then Errdefs.usage_error "Grid_kd.create: k must be >= 1";
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  let dims = factorize ~k p in
  let stride = ref 1 and first_color = ref 0 in
  let hops =
    Array.init k (fun h ->
        let s = !stride and extent = dims.(k - 1 - h) in
        let color = !first_color + (r / (s * extent) * s) + (r mod s) in
        let sub =
          match Kamping.Communicator.split comm ~color ~key:(r / s mod extent) with
          | Some c -> c
          | None -> assert false
        in
        stride := s * extent;
        first_color := !first_color + (p / extent);
        { stride = s; extent; sub })
  in
  { comm; dims; hops }

let size t = Kamping.Communicator.size t.comm

let dims t = Array.copy t.dims

(* Route a personalized exchange through the grid.  [send_counts.(d)] is
   the number of elements for global rank [d]; [data] holds them grouped
   by destination.  Returns all elements addressed to this rank (order:
   grouped by last-hop sender, not by original sender). *)
let alltoallv (t : t) (dt : 'a Datatype.t) ~(send_counts : int array) (data : 'a array) :
    'a array =
  let p = size t in
  let me = Kamping.Communicator.rank t.comm in
  if Array.length send_counts <> p then
    Errdefs.usage_error "Grid_kd.alltoallv: send_counts must have length %d" p;
  Runtime.record (Comm.runtime (Kamping.Communicator.mpi t.comm)) ~op:"grid_alltoallv"
    ~bytes:0;
  Datatype.with_committed (Datatype.pair Datatype.int dt) @@ fun header_dt ->
  (* Start: tag every element with its final destination. *)
  let total = Array.fold_left ( + ) 0 send_counts in
  let current =
    ref (if total = 0 then [||] else Array.make total (0, Datatype.zero_elem dt))
  in
  let cursor = ref 0 in
  Array.iteri
    (fun d n ->
      for _ = 1 to n do
        !current.(!cursor) <- (d, data.(!cursor));
        incr cursor
      done)
    send_counts;
  (* Each hop: within its subcommunicator, forward every element to the
     member whose coordinate matches the destination's. *)
  Array.iter
    (fun { stride; extent; sub } ->
      let coord (d, _) = d / stride mod extent in
      let counts = Array.make extent 0 in
      Array.iter (fun e -> counts.(coord e) <- counts.(coord e) + 1) !current;
      let next = Coll.exclusive_prefix_sum counts in
      let buf = Array.copy !current in
      Array.iter
        (fun e ->
          let c = coord e in
          buf.(next.(c)) <- e;
          next.(c) <- next.(c) + 1)
        !current;
      current := Kamping.Collectives.alltoallv sub header_dt ~send_counts:counts buf)
    t.hops;
  Array.map
    (fun (d, v) ->
      if d <> me then
        Errdefs.usage_error "Grid_kd: misrouted element (dest %d at rank %d)" d me;
      v)
    !current
