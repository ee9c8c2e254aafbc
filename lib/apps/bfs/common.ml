(* Shared, communication-free parts of the distributed BFS
   implementations (paper §IV-B, Fig. 9).

   The graph is distributed with each rank holding a contiguous vertex
   range as an adjacency array.  BFS proceeds level-synchronously: expand
   the local frontier into per-owner blocks of remote candidates, exchange
   the blocks (this is the part that differs per binding / exchanger, see
   the sibling modules), then relax the received candidates.  [dist.(l)]
   ends up holding the hop count from the source, or [undef].

   A level runs on flat int buffers that one BFS reuses (DESIGN.md
   §13.1): the frontier, the next frontier, one block of remote
   candidates per owner rank and the owners in the order they first got
   a candidate.  [expand] is the one per-edge loop; the
   list-and-[Hashtbl] functions the binding-style files call
   ([expand_frontier], [relax_received]) are thin wrappers over it.  The
   orders the wrappers and the exchangers see are the ones a list and a
   per-edge [Hashtbl.replace] gave, because the modelled time depends on
   what is sent in what order:
   - the frontier is walked newest-first, a list's head-first order;
   - each owner's block is in insertion order;
   - [outgoing] lists the owners in the [Hashtbl.fold] order of a table
     filled in first-appearance order (see [hashtbl_order]);
   - received blocks are relaxed in the order they are given. *)

open Graphgen

let undef = max_int

(* A growable int buffer: [a.(0 .. n-1)] are the elements, oldest first. *)
type buf = { mutable a : int array; mutable n : int }

let buf () = { a = [||]; n = 0 }

let[@inline never] grow b =
  let a = Array.make (Int.max 16 (2 * Array.length b.a)) 0 in
  Array.blit b.a 0 a 0 b.n;
  b.a <- a

let[@inline] push b x =
  if b.n = Array.length b.a then grow b;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

type t = {
  g : Distgraph.t;
  dist : int array;
  mutable frontier : buf;
  mutable next : buf;
  out : buf array;  (* per owner rank: remote candidates, insertion order *)
  owners : buf;  (* owners with a candidate, in first-appearance order *)
  mutable touched : int;  (* keeps the touch pass's loads live *)
}

(* A state with an empty block for each of [ranks] owners. *)
let make g dist ~frontier ~next ~ranks =
  let out = Array.init ranks (fun _ -> buf ()) in
  { g; dist; frontier; next; out; owners = buf (); touched = 0 }

let initial_state (g : Distgraph.t) ~(source : int) : int array * int list =
  let dist = Array.make (Int.max 1 (Distgraph.n_local g)) undef in
  if Distgraph.is_local g source then begin
    let l = Distgraph.local_of_global g source in
    dist.(l) <- 0;
    (dist, [ l ])
  end
  else (dist, [])

(* A state over [dist] whose frontier is [frontier], visited head first:
   the head is the buffer's last element. *)
let of_list (g : Distgraph.t) dist frontier =
  let n = List.length frontier in
  let a = Array.make n 0 in
  List.iteri (fun i l -> a.(n - 1 - i) <- l) frontier;
  make g dist ~frontier:{ a; n } ~next:(buf ()) ~ranks:g.comm_size

let create g ~source =
  let dist, frontier = initial_state g ~source in
  of_list g dist frontier

let dist st = st.dist

let frontier_is_empty st = st.frontier.n = 0

(* Expand the frontier into [next] (local discoveries) and the per-owner
   blocks.  The hot loop of every BFS here, so it runs on the CSR arrays
   in place and makes no cross-module call per edge (DESIGN.md §13).

   The touch pass first loads each frontier row's [xadj] bounds and its
   first and last neighbour.  Those loads are independent of each other
   and of any branch, so the core overlaps their cache misses; the
   per-edge loop then finds the rows in cache instead of stalling on one
   miss per vertex behind its data-dependent branches. *)
let expand st ~level =
  let { Distgraph.first_vertex; n_local; n_global; chunk; xadj; adjncy; _ } = st.g in
  let dist = st.dist and next = st.next and out = st.out and owners = st.owners in
  let fa = st.frontier.a and fn = st.frontier.n in
  let touched = ref 0 in
  for j = fn - 1 downto 0 do
    let l = fa.(j) in
    let lo = xadj.(l) and hi = xadj.(l + 1) in
    if hi > lo then touched := !touched + adjncy.(lo) + adjncy.(hi - 1)
  done;
  st.touched <- !touched;
  for j = fn - 1 downto 0 do
    let l = fa.(j) in
    for i = xadj.(l) to xadj.(l + 1) - 1 do
      let u = adjncy.(i) in
      let lu = u - first_vertex in
      if lu >= 0 && lu < n_local then begin
        if dist.(lu) = undef then begin
          dist.(lu) <- level + 1;
          push next lu
        end
      end
      else begin
        (* Out of range: [owner] raises its usage error. *)
        if u < 0 || u >= n_global then ignore (Distgraph.owner st.g u);
        let owner = u / chunk in
        let b = out.(owner) in
        if b.n = 0 then push owners owner;
        push b u
      end
    done
  done

(* Relax remotely received candidates (global vertex ids owned here) into
   the next frontier. *)
let relax st (received : int array) ~level =
  let { Distgraph.first_vertex; n_local; _ } = st.g in
  let dist = st.dist and next = st.next in
  for i = 0 to Array.length received - 1 do
    let u = received.(i) in
    let lu = u - first_vertex in
    (* Not ours: [local_of_global] raises its usage error. *)
    if lu < 0 || lu >= n_local then ignore (Distgraph.local_of_global st.g u);
    if dist.(lu) = undef then begin
      dist.(lu) <- level + 1;
      push next lu
    end
  done

(* Start the next level: the next frontier becomes the frontier, and the
   blocks and the owner list empty. *)
let advance st =
  for k = 0 to st.owners.n - 1 do
    st.out.(st.owners.a.(k)).n <- 0
  done;
  st.owners.n <- 0;
  let f = st.frontier in
  st.frontier <- st.next;
  f.n <- 0;
  st.next <- f

let block st owner =
  let b = st.out.(owner) in
  Array.sub b.a 0 b.n

(* Sort [owners] (first-appearance order) into the order [Hashtbl.fold]
   visits a [Hashtbl.create 16] filled by [Hashtbl.add] in that order:
   bucket index ascending, and within a bucket the newest entry first.
   An int key's bucket is [Hashtbl.hash key] masked by the bucket count,
   which starts at 16 and doubles as soon as the table holds more than
   twice as many entries; a doubling keeps each bucket's order.
   [test_apps]' kernel property checks this against a real table. *)
let hashtbl_order (owners : buf) =
  let k = owners.n and a = owners.a in
  let buckets = ref 16 in
  while k > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  (* Newest first, then a stable insertion sort by bucket. *)
  for i = 0 to (k / 2) - 1 do
    let x = a.(i) in
    a.(i) <- a.(k - 1 - i);
    a.(k - 1 - i) <- x
  done;
  for i = 1 to k - 1 do
    let x = a.(i) in
    let hx = Hashtbl.hash x land mask in
    let j = ref (i - 1) in
    while !j >= 0 && Hashtbl.hash a.(!j) land mask > hx do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* The non-empty blocks as (owner, block) pairs, in the order
   [Hashtbl.fold (fun dest vs acc -> (dest, block) :: acc)] gives over the
   owners' table: the NBX exchanger's send order.  Reorders [owners], so
   call it at most once per level. *)
let outgoing st : (int * int array) list =
  hashtbl_order st.owners;
  let acc = ref [] in
  for k = 0 to st.owners.n - 1 do
    let owner = st.owners.a.(k) in
    acc := (owner, block st owner) :: !acc
  done;
  !acc

(* The blocks of [dests] back to back, in that order; each block newest
   first (the order of the bucket lists) if [newest_first]. *)
let concat_blocks st (dests : int array) ~newest_first : int array =
  let total = Array.fold_left (fun n d -> n + st.out.(d).n) 0 dests in
  let data = Array.make total 0 in
  let pos = ref 0 in
  Array.iter
    (fun d ->
      let b = st.out.(d) in
      if newest_first then
        for i = 0 to b.n - 1 do
          data.(!pos + i) <- b.a.(b.n - 1 - i)
        done
      else Array.blit b.a 0 data !pos b.n;
      pos := !pos + b.n)
    dests;
  data

let count st dest = st.out.(dest).n

(* Every rank's block in rank order, each newest first, and the counts:
   what [Kamping.Flatten.flatten] gives for [buckets st]. *)
let flatten st : int array * int array =
  let ranks = Array.init (Array.length st.out) Fun.id in
  (concat_blocks st ranks ~newest_first:true, Array.map (count st) ranks)

(* A buffer as a list, newest first. *)
let rev_list (b : buf) =
  let vs = ref [] in
  for i = 0 to b.n - 1 do
    vs := b.a.(i) :: !vs
  done;
  !vs

(* The blocks as the bucket table the list-based exchangers take: each
   owner's candidates newest first, owners added in first-appearance
   order. *)
let buckets st : (int, int list) Hashtbl.t =
  let table = Hashtbl.create 16 in
  for k = 0 to st.owners.n - 1 do
    let owner = st.owners.a.(k) in
    Hashtbl.add table owner (rev_list st.out.(owner))
  done;
  table

(* One level of [expand] over a list frontier, visited head first:
   returns the local discoveries (newest first) and the remote
   candidates bucketed by owner.  Most ranks of a level-synchronous BFS
   have nothing to expand at most levels, so an empty frontier builds no
   buffers. *)
let expand_frontier (g : Distgraph.t) (dist : int array) (frontier : int list)
    ~(level : int) : int list ref * (int, int list) Hashtbl.t =
  match frontier with
  | [] -> (ref [], Hashtbl.create 16)
  | _ :: _ ->
      let st = of_list g dist frontier in
      expand st ~level;
      (ref (rev_list st.next), buckets st)

(* [relax] onto a list frontier: new discoveries are consed in order. *)
let relax_received (g : Distgraph.t) (dist : int array) (received : int array)
    ~(level : int) (next_frontier : int list ref) : unit =
  if Array.length received > 0 then begin
    let next = { a = Array.make (Array.length received) 0; n = 0 } in
    let st = make g dist ~frontier:(buf ()) ~next ~ranks:0 in
    relax st received ~level;
    for i = 0 to st.next.n - 1 do
      next_frontier := st.next.a.(i) :: !next_frontier
    done
  end

(* Ranks adjacent to us via at least one cut edge — the static
   communication topology of this BFS (used by the neighborhood-collective
   exchanger). *)
let cut_neighbors (g : Distgraph.t) : int array =
  let seen = Hashtbl.create 16 in
  for l = 0 to Distgraph.n_local g - 1 do
    Distgraph.iter_neighbors g l (fun u ->
        if not (Distgraph.is_local g u) then Hashtbl.replace seen (Distgraph.owner g u) ())
  done;
  let out = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
  Array.of_list (List.sort compare out)
