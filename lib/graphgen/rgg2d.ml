(* 2-D random geometric graphs: n points uniform in the unit square,
   connected when within Euclidean distance [radius].

   Properties driving Fig. 10: very high locality (edges connect nearby
   points, and ranks own horizontal strips, so nearly all edges are
   intra-rank or to the adjacent strip) and high diameter (≈ 1/radius
   hops).

   Distributed generation: rank r owns the y-strip [r/p, (r+1)/p); its
   points are hashes of (seed, global id).  Points within [radius] of a
   strip border are exchanged with the adjacent rank (a halo exchange —
   real communication through the binding layer); neighbor search uses a
   uniform grid with cell width >= radius. *)

open Mpisim

let default_degree = 16.

(* Radius for an expected average degree on n uniform points:
   deg = n * pi * radius^2. *)
let radius_for_degree ~n ~degree = sqrt (degree /. (Float.pi *. float_of_int n))

type point = { id : int; x : float; y : float }

let dist2 a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  (dx *. dx) +. (dy *. dy)

let generate (comm : Kamping.Communicator.t) ~(n_per_rank : int) ?radius ~(seed : int) ()
    : Distgraph.t =
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  let n = n_per_rank * p in
  let radius =
    match radius with Some x -> x | None -> radius_for_degree ~n ~degree:default_degree
  in
  let strip_lo = float_of_int r /. float_of_int p in
  let strip_hi = float_of_int (r + 1) /. float_of_int p in
  let first = r * n_per_rank in
  let my_points =
    Array.init n_per_rank (fun j ->
        let id = first + j in
        {
          id;
          x = Xoshiro.hash_float ~seed ~stream:11 ~counter:id;
          y = strip_lo +. (Xoshiro.hash_float ~seed ~stream:12 ~counter:id *. (strip_hi -. strip_lo));
        })
  in
  (* Halo exchange: border points go to the adjacent strips. *)
  let to_prev =
    Array.of_list
      (List.filter (fun pt -> pt.y -. strip_lo <= radius) (Array.to_list my_points))
  in
  let to_next =
    Array.of_list
      (List.filter (fun pt -> strip_hi -. pt.y <= radius) (Array.to_list my_points))
  in
  let outgoing =
    (if r > 0 then [ (r - 1, to_prev) ] else [])
    @ if r < p - 1 then [ (r + 1, to_next) ] else []
  in
  let send_counts = Array.make p 0 in
  List.iter (fun (dest, pts) -> send_counts.(dest) <- Array.length pts) outgoing;
  let data = Array.concat (List.map snd (List.sort compare outgoing)) in
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
    @@ fun dt -> Kamping.Collectives.alltoallv comm dt ~send_counts data
  in
  (* Neighbor search over local + halo points via grid hashing. *)
  let all_points = Array.append my_points halo in
  let cell = max radius 1e-9 in
  let key pt = (int_of_float (pt.x /. cell), int_of_float (pt.y /. cell)) in
  let grid : (int * int, point list) Hashtbl.t = Hashtbl.create (Array.length all_points) in
  Array.iter
    (fun pt ->
      let k = key pt in
      Hashtbl.replace grid k (pt :: (try Hashtbl.find grid k with Not_found -> [])))
    all_points;
  let r2 = radius *. radius in
  let edges = ref [] in
  Array.iter
    (fun pt ->
      let cx, cy = key pt in
      for dx = -1 to 1 do
        for dy = -1 to 1 do
          match Hashtbl.find_opt grid (cx + dx, cy + dy) with
          | None -> ()
          | Some others ->
              List.iter
                (fun other ->
                  (* Each unordered pair once, from its lower id. *)
                  if pt.id < other.id && dist2 pt other <= r2 then
                    edges := (pt.id, other.id) :: !edges)
                others
        done
      done)
    my_points;
  Distgraph.build_from_edges comm ~n_global:n !edges
