(* 2-D random geometric graphs: n points uniform in the unit square,
   connected when within Euclidean distance [radius].

   Properties driving Fig. 10: very high locality (edges connect nearby
   points, and ranks own horizontal strips, so nearly all edges are
   intra-rank or to the adjacent strip) and high diameter (≈ 1/radius
   hops).

   Distributed generation: rank r owns the y-strip [r/p, (r+1)/p); its
   points are hashes of (seed, global id).  Each point is sent to every
   other strip within [radius] of it (a halo exchange — real
   communication through the binding layer); neighbor search uses a
   dense uniform grid with cell width >= radius. *)

open Mpisim

let default_degree = 16.

(* Radius for an expected average degree on n uniform points:
   deg = n * pi * radius^2. *)
let radius_for_degree ~n ~degree = sqrt (degree /. (Float.pi *. float_of_int n))

(* A border point on its way to a strip within [radius]. *)
type point = { id : int; x : float; y : float }

(* Grid cell coordinate of [v] for cell width [c]. *)
let cell_of c v = int_of_float (v /. c)

let generate (comm : Kamping.Communicator.t) ~(n_per_rank : int) ?radius ~(seed : int) ()
    : Distgraph.t =
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  let n = n_per_rank * p in
  let radius =
    match radius with Some x -> x | None -> radius_for_degree ~n ~degree:default_degree
  in
  if not (radius >= 0.) then
    Errdefs.usage_error "Rgg2d.generate: radius %g is negative" radius;
  let strip_lo = float_of_int r /. float_of_int p in
  let strip_hi = float_of_int (r + 1) /. float_of_int p in
  let first = r * n_per_rank in
  let hash stream j = Xoshiro.hash_float ~seed ~stream ~counter:(first + j) in
  let local_x = Array.init n_per_rank (hash 11) in
  let local_y =
    Array.init n_per_rank (fun j -> strip_lo +. (hash 12 j *. (strip_hi -. strip_lo)))
  in
  (* Halo exchange: each point goes to every other strip within [radius]
     of it (only the adjacent ones unless [radius] exceeds a strip's
     height 1/p), grouped by destination. *)
  let strip_edge d = float_of_int d /. float_of_int p in
  let gap d y = if d < r then y -. strip_edge (d + 1) else strip_edge d -. y in
  let border d =
    (* No point of this strip is nearer strip [d] than its closer edge. *)
    if d = r || gap d (if d < r then strip_lo else strip_hi) > radius then [||]
    else begin
      let pts = ref [] in
      for j = n_per_rank - 1 downto 0 do
        if gap d local_y.(j) <= radius then
          pts := { id = first + j; x = local_x.(j); y = local_y.(j) } :: !pts
      done;
      Array.of_list !pts
    end
  in
  let outgoing = Array.init p border in
  let send_counts = Array.map Array.length outgoing in
  let halo =
    (* Built per call: [Engine.run_many] runs share process-wide values. *)
    Datatype.(
      with_committed
        (record "rgg_point"
           [
             field "id" int (fun (p : point) -> p.id);
             field "x" float (fun p -> p.x);
             field "y" float (fun p -> p.y);
           ]
           (fun id x y : point -> { id; x; y })))
    @@ fun dt ->
    Kamping.Collectives.alltoallv comm dt ~send_counts
      (Array.concat (Array.to_list outgoing))
  in
  (* Local points, then halo points, as parallel arrays. *)
  let ids =
    Array.append (Array.init n_per_rank (( + ) first)) (Array.map (fun pt -> pt.id) halo)
  in
  let xs = Array.append local_x (Array.map (fun pt -> pt.x) halo) in
  let ys = Array.append local_y (Array.map (fun pt -> pt.y) halo) in
  let n_pts = Array.length ids in
  (* A dense grid over the points' bounding box.  Cells are [radius] wide
     (at least 1e-9), doubled until the grid has at most two cells per
     point: a pair within [radius] still lies in adjacent cells, and a
     tiny radius cannot allocate a huge grid. *)
  let lo_x = ref infinity and hi_x = ref neg_infinity in
  let lo_y = ref infinity and hi_y = ref neg_infinity in
  for i = 0 to n_pts - 1 do
    lo_x := Float.min !lo_x xs.(i);
    hi_x := Float.max !hi_x xs.(i);
    lo_y := Float.min !lo_y ys.(i);
    hi_y := Float.max !hi_y ys.(i)
  done;
  let span c lo hi = if n_pts = 0 then 1 else cell_of c hi - cell_of c lo + 1 in
  let rec fit c =
    if float_of_int (span c !lo_x !hi_x) *. float_of_int (span c !lo_y !hi_y)
       <= float_of_int ((2 * n_pts) + 16)
    then c
    else fit (2. *. c)
  in
  let cell = fit (Float.max radius 1e-9) in
  let cx0 = if n_pts = 0 then 0 else cell_of cell !lo_x in
  let cy0 = if n_pts = 0 then 0 else cell_of cell !lo_y in
  let nx = span cell !lo_x !hi_x and ny = span cell !lo_y !hi_y in
  (* Counting sort of the points by cell: cell [k]'s points are
     [start.(k) .. start.(k + 1) - 1] of the sorted arrays. *)
  let start = Array.make ((nx * ny) + 1) 0 in
  let cell_idx = Array.make n_pts 0 in
  for i = 0 to n_pts - 1 do
    let k = ((cell_of cell ys.(i) - cy0) * nx) + (cell_of cell xs.(i) - cx0) in
    cell_idx.(i) <- k;
    start.(k + 1) <- start.(k + 1) + 1
  done;
  for k = 1 to nx * ny do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let fill = Array.sub start 0 (nx * ny) in
  let sid = Array.make n_pts 0 and sx = Array.make n_pts 0. and sy = Array.make n_pts 0. in
  for i = 0 to n_pts - 1 do
    let k = cell_idx.(i) in
    let a = fill.(k) in
    sid.(a) <- ids.(i);
    sx.(a) <- xs.(i);
    sy.(a) <- ys.(i);
    fill.(k) <- a + 1
  done;
  (* Each local point against its own and the eight adjacent cells; a
     grid row's three cells are one contiguous run of the sorted arrays. *)
  let r2 = radius *. radius in
  let edges = Distgraph.Edges.create comm ~n_global:n in
  for k = 0 to (nx * ny) - 1 do
    let cx = k mod nx and cy = k / nx in
    for a = start.(k) to start.(k + 1) - 1 do
      let id = sid.(a) in
      if id >= first && id < first + n_per_rank then
        for row = Int.max 0 (cy - 1) to Int.min (ny - 1) (cy + 1) do
          let base = row * nx in
          let row_lo = start.(base + Int.max 0 (cx - 1))
          and row_hi = start.(base + Int.min (nx - 1) (cx + 1) + 1) in
          for b = row_lo to row_hi - 1 do
            (* Each unordered pair once, from its lower id. *)
            if id < sid.(b) then begin
              let dx = sx.(a) -. sx.(b) and dy = sy.(a) -. sy.(b) in
              if (dx *. dx) +. (dy *. dy) <= r2 then Distgraph.Edges.add edges id sid.(b)
            end
          done
        done
    done
  done;
  Distgraph.build_from_edges comm edges
