(* Cartesian process topologies (MPI_Cart_* analogue).

   A cartesian communicator arranges ranks in an n-dimensional grid with
   optional per-dimension periodicity.  It powers the classic stencil /
   halo-exchange pattern: [shift] yields the source/destination ranks for
   displacement along one dimension, exactly like MPI_Cart_shift.

   Rank order is row-major (last dimension fastest), ranks are preserved
   (no reorder). *)

type t = {
  comm : Comm.t;
  dims : int array;
  periods : bool array;
}

(* Balanced factorization of [nnodes] into [ndims] extents, largest first
   (MPI_Dims_create analogue). *)
let dims_create ~nnodes ~ndims =
  if ndims < 1 then Errdefs.usage_error "Cart.dims_create: ndims must be >= 1";
  let dims = Array.make ndims 1 in
  let remaining = ref nnodes in
  for i = 0 to ndims - 1 do
    let left = ndims - i in
    let target =
      int_of_float (ceil (float_of_int !remaining ** (1. /. float_of_int left)))
    in
    let rec best c = if c <= 1 then 1 else if !remaining mod c = 0 then c else best (c - 1) in
    let d = best target in
    dims.(i) <- d;
    remaining := !remaining / d
  done;
  dims.(ndims - 1) <- dims.(ndims - 1) * !remaining;
  Array.sort (fun a b -> compare b a) dims;
  dims

(* Create a cartesian topology over [comm].  The product of [dims] must
   equal the communicator size.  Collective (the underlying communicator
   is duplicated so cartesian traffic is isolated). *)
let create comm ~(dims : int array) ~(periods : bool array) : t =
  if Array.length dims <> Array.length periods then
    Errdefs.usage_error "Cart.create: dims and periods must have equal length";
  let product = Array.fold_left ( * ) 1 dims in
  if product <> Comm.size comm then
    Errdefs.usage_error "Cart.create: dims product %d does not match size %d" product
      (Comm.size comm);
  Array.iter
    (fun d -> if d < 1 then Errdefs.usage_error "Cart.create: dimension extent < 1")
    dims;
  let dup = Comm_ops.dup comm in
  { comm = dup; dims = Array.copy dims; periods = Array.copy periods }

let comm t = t.comm

let ndims t = Array.length t.dims

let dims t = Array.copy t.dims

let periods t = Array.copy t.periods

(* Coordinates of a rank (row-major, last dimension fastest). *)
let coords_of_rank t rank =
  Comm.check_rank t.comm rank;
  let n = ndims t in
  let c = Array.make n 0 in
  let rest = ref rank in
  for i = n - 1 downto 0 do
    c.(i) <- !rest mod t.dims.(i);
    rest := !rest / t.dims.(i)
  done;
  c

(* Rank of coordinates; out-of-range coordinates wrap in periodic
   dimensions and yield [None] otherwise. *)
let rank_of_coords t (coords : int array) : int option =
  if Array.length coords <> ndims t then
    Errdefs.usage_error "Cart.rank_of_coords: expected %d coordinates" (ndims t);
  let ok = ref true in
  let rank = ref 0 in
  Array.iteri
    (fun i c ->
      let d = t.dims.(i) in
      let c = if t.periods.(i) then ((c mod d) + d) mod d else c in
      if c < 0 || c >= d then ok := false else rank := (!rank * d) + c)
    coords;
  if !ok then Some !rank else None

let my_coords t = coords_of_rank t (Comm.rank t.comm)

(* Source and destination ranks for a displacement along [dim]
   (MPI_Cart_shift): receive from [source], send to [dest]; [None] at
   non-periodic boundaries. *)
let shift t ~dim ~disp : int option * int option =
  if dim < 0 || dim >= ndims t then Errdefs.usage_error "Cart.shift: invalid dimension";
  let me = my_coords t in
  let at delta =
    let c = Array.copy me in
    c.(dim) <- c.(dim) + delta;
    rank_of_coords t c
  in
  (at (-disp), at disp)

(* Halo exchange along one dimension: simultaneously send [to_prev] toward
   coordinate-1 and [to_next] toward coordinate+1; returns
   (from_prev, from_next), [None] at open boundaries.  Collective along
   the dimension.  [from_prev] is what prev sent toward its next, matched
   by the direction's tag: on a periodic dimension of extent 2 (or 1) prev
   and next are one rank.  A neighbour along one dimension is never one
   along another, so the two tags serve every dimension. *)
let halo_exchange t (dt : 'a Datatype.t) ~dim ~(to_prev : 'a array) ~(to_next : 'a array)
    : 'a array option * 'a array option =
  let prev, next = shift t ~dim ~disp:1 in
  let send dest tag a =
    P2p.send_range t.comm dt ~dest ~tag a ~pos:0 ~count:(Array.length a)
  in
  Option.iter (fun p -> send p Coll_algo.tag_halo_to_prev to_prev) prev;
  Option.iter (fun n -> send n Coll_algo.tag_halo_to_next to_next) next;
  let recv tag source = P2p.recv_fresh t.comm dt ~source ~tag in
  let from_prev = Option.map (recv Coll_algo.tag_halo_to_next) prev in
  let from_next = Option.map (recv Coll_algo.tag_halo_to_prev) next in
  (from_prev, from_next)

(* Sub-grid communicator keeping the dimensions flagged true
   (MPI_Cart_sub): ranks sharing the dropped coordinates form a new
   cartesian communicator. *)
let sub t ~(keep : bool array) : t =
  if Array.length keep <> ndims t then
    Errdefs.usage_error "Cart.sub: expected %d flags" (ndims t);
  let me = my_coords t in
  (* Color: the dropped coordinates; key: row-major index of the kept
     ones. *)
  let color = ref 0 and key = ref 0 in
  Array.iteri
    (fun i c ->
      if keep.(i) then key := (!key * t.dims.(i)) + c
      else color := (!color * t.dims.(i)) + c)
    me;
  match Comm_ops.split t.comm ~color:!color ~key:!key () with
  | None -> assert false
  | Some sub_comm ->
      let dims = Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list t.dims)) in
      let periods =
        Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list t.periods))
      in
      { comm = sub_comm; dims; periods }
