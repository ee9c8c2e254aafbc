(* Reproducible reduction (paper §V-C, Fig. 13; Stelz [45]).

   IEEE-754 addition is not associative, so the result of a parallel sum
   normally depends on the number of processors.  This plugin fixes the
   reduction order by conceptually reducing over a single binary tree whose
   leaves are the *global element indices* — independent of how the
   elements are distributed over ranks:

   - each rank decomposes its contiguous block of the global array into
     maximal index-aligned power-of-two segments and reduces each segment
     with a fixed pairwise tree ([tree_sum]), yielding a small "forest" of
     (level, index, value) nodes — at most 2*log2(n) + 2 of them;
   - forests are merged pairwise up a binomial tree over the ranks; merging
     combines sibling nodes (always left + right) into their parent, which
     is associative AND commutative on forests, so any combination order
     yields the same bits;
   - the root folds the surviving roots in descending-position order and
     broadcasts the result.

   Only O(log n) values travel per rank — faster than gathering all n/p
   elements to the root — and the result is bit-identical for every p. *)

open Mpisim

type node = { level : int; index : int; value : float }

(* Fixed-order pairwise summation of [len] elements starting at [pos];
   [len] is a power of two.  The combination tree depends only on global
   indices, never on the rank layout. *)
let rec tree_sum ~op (xs : float array) ~pos ~len =
  if len = 1 then xs.(pos)
  else begin
    let half = len / 2 in
    op (tree_sum ~op xs ~pos ~len:half) (tree_sum ~op xs ~pos:(pos + half) ~len:half)
  end

(* Decompose [offset, offset + length) into maximal aligned power-of-two
   segments and reduce each one. *)
let local_forest ~op (xs : float array) ~(offset : int) : node list =
  let length = Array.length xs in
  let rec go pos acc =
    if pos >= offset + length then List.rev acc
    else begin
      (* Largest power-of-two segment aligned at [pos] and fitting. *)
      let max_align = if pos = 0 then max_int else pos land -pos in
      let remaining = offset + length - pos in
      let seg = ref 1 in
      while !seg * 2 <= remaining && !seg * 2 <= max_align do
        seg := !seg * 2
      done;
      (* In the corner case where alignment allows less than fit, clamp. *)
      let seg = Int.min !seg (if max_align < !seg then max_align else !seg) in
      let level = ref 0 in
      let s = ref seg in
      while !s > 1 do
        s := !s / 2;
        incr level
      done;
      let value = tree_sum ~op xs ~pos:(pos - offset) ~len:seg in
      go (pos + seg) ({ level = !level; index = pos / seg; value } :: acc)
    end
  in
  go offset []

(* Merge two forests: insert all nodes into a map, then repeatedly combine
   sibling pairs (left + right, in that order) into their parent. *)
let merge_forests ~op (a : node list) (b : node list) : node list =
  let tbl : (int * int, float) Hashtbl.t = Hashtbl.create 32 in
  let rec insert level index value =
    let sibling = index lxor 1 in
    match Hashtbl.find_opt tbl (level, sibling) with
    | Some sv ->
        Hashtbl.remove tbl (level, sibling);
        let left, right = if index land 1 = 0 then (value, sv) else (sv, value) in
        insert (level + 1) (index / 2) (op left right)
    | None -> Hashtbl.replace tbl (level, index) value
  in
  List.iter (fun n -> insert n.level n.index n.value) a;
  List.iter (fun n -> insert n.level n.index n.value) b;
  Hashtbl.fold (fun (level, index) value acc -> { level; index; value } :: acc) tbl []

(* Fold the final forest's roots in ascending global-position order. *)
let fold_forest ~op (forest : node list) : float =
  let by_position =
    List.sort
      (fun a b -> compare (a.index lsl a.level) (b.index lsl b.level))
      forest
  in
  match by_position with
  | [] -> 0.
  | first :: rest -> List.fold_left (fun acc n -> op acc n.value) first.value rest

let node_codec : node Serial.Codec.t =
  Serial.Codec.map ~name:"repro_node"
    ~inject:(fun (level, index, value) -> { level; index; value })
    ~project:(fun n -> (n.level, n.index, n.value))
    (Serial.Codec.triple Serial.Codec.int Serial.Codec.int Serial.Codec.float)

let forest_type = Kamping.Serialized.datatype (Serial.Codec.list node_codec)

let repro_tag = 4243

(* Reproducible global reduction of a distributed float array under an
   arbitrary associative operation [op] (plain constants, named functions
   or lambdas, as the paper's reduce supports): the result is
   bit-identical for any processor count and any block distribution.
   Collective; every rank receives the result. *)
let reduce (comm : Kamping.Communicator.t) ~(op : float -> float -> float)
    (local : float array) : float =
  let mpi = Kamping.Communicator.mpi comm in
  Comm.check_collective mpi ~op:"repro_reduce" ~root:(-1) ~ty:"";
  Runtime.record (Comm.runtime mpi) ~op:"repro_reduce" ~bytes:0;
  let n = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  (* Global offset of our block: exclusive prefix sum of lengths. *)
  let offset =
    Kamping.Collectives.exscan_single_or comm Datatype.int Reduce_op.int_sum ~init:0
      (Array.length local)
  in
  let forest = ref (local_forest ~op local ~offset) in
  (* Binomial-tree merge towards rank 0 with serialized forests. *)
  let mask = ref 1 in
  let sent = ref false in
  while (not !sent) && !mask < n do
    if r land !mask <> 0 then begin
      Kamping.P2p.send_single comm forest_type ~dest:(r - !mask) ~tag:repro_tag !forest;
      sent := true
    end
    else begin
      if r + !mask < n then begin
        let other =
          Kamping.P2p.recv_single comm forest_type ~source:(r + !mask) ~tag:repro_tag ()
        in
        forest := merge_forests ~op !forest other
      end;
      mask := !mask lsl 1
    end
  done;
  let result = if r = 0 then Some [| fold_forest ~op !forest |] else None in
  (Kamping.Collectives.bcast comm Datatype.float ~root:0 ?data:result ()).(0)

(* Reproducible global sum: the common case. *)
let sum (comm : Kamping.Communicator.t) (local : float array) : float =
  reduce comm ~op:( +. ) local

(* Baseline 1: gather every element to the root, sum sequentially,
   broadcast.  Also reproducible, but ships n/p elements per rank. *)
let naive_gather_sum (comm : Kamping.Communicator.t) (local : float array) : float =
  let all = Kamping.Collectives.gatherv comm Datatype.float ~root:0 local in
  let result =
    if Kamping.Communicator.rank comm = 0 then
      Some [| Array.fold_left ( +. ) 0. all |]
    else None
  in
  (Kamping.Collectives.bcast comm Datatype.float ~root:0 ?data:result ()).(0)

(* Baseline 2: ordinary allreduce — fast but NOT reproducible across p
   (per-rank partial sums depend on the distribution). *)
let plain_allreduce_sum (comm : Kamping.Communicator.t) (local : float array) : float =
  let partial = Array.fold_left ( +. ) 0. local in
  Kamping.Collectives.allreduce_single comm Datatype.float Reduce_op.float_sum partial
