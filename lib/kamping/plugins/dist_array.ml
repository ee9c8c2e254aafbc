(* Distributed containers with bulk-parallel operations — the paper's §VI
   vision of "lightweight bulk parallel computation inspired by MapReduce
   and Thrill, while not locking the programmer into the walled garden of
   a particular framework".

   A ['a t] is a block-distributed array: each rank owns a contiguous
   slice.  Operations are collective and compose:

   - [map], [mapi], [filter] (with rebalancing),
   - [reduce], [fold-style aggregates],
   - [sort] (through the sample-sort plugin, then rebalanced),
   - [reduce_by_key] (hash partitioning + local fold — the MapReduce
     shuffle),
   - [balance] (even redistribution via one alltoallv),
   - [to_global] (allgatherv, for small results).

   Everything is a thin composition of the binding layer's collectives, so
   user code keeps full access to the underlying communicator — no walled
   garden. *)

open Mpisim

type 'a t = {
  comm : Kamping.Communicator.t;
  dt : 'a Datatype.t;
  local : 'a array;
  offset : int;  (* global index of local.(0) *)
  n_global : int;
}

let comm t = t.comm

let local t = t.local

let local_length t = Array.length t.local

let global_length t = t.n_global

let offset t = t.offset

(* Build from per-rank local slices (any sizes); offsets are computed with
   an exscan.  Collective. *)
let of_local (comm : Kamping.Communicator.t) (dt : 'a Datatype.t) (local : 'a array) :
    'a t =
  let n_local = Array.length local in
  let offset =
    Kamping.Collectives.exscan_single_or comm Datatype.int Reduce_op.int_sum ~init:0
      n_local
  in
  let n_global =
    Kamping.Collectives.allreduce_single comm Datatype.int Reduce_op.int_sum n_local
  in
  { comm; dt; local; offset; n_global }

(* Generate a distributed array from a function of the global index, with
   an even block distribution. *)
let init (comm : Kamping.Communicator.t) (dt : 'a Datatype.t) ~(n : int)
    (f : int -> 'a) : 'a t =
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  let chunk = (n + p - 1) / p in
  let lo = Int.min n (r * chunk) in
  let hi = Int.min n (lo + chunk) in
  {
    comm;
    dt;
    local = Array.init (hi - lo) (fun j -> f (lo + j));
    offset = lo;
    n_global = n;
  }

let map (f : 'a -> 'b) (dt : 'b Datatype.t) (t : 'a t) : 'b t =
  { comm = t.comm; dt; local = Array.map f t.local; offset = t.offset; n_global = t.n_global }

(* [f] also receives the global index. *)
let mapi (f : int -> 'a -> 'b) (dt : 'b Datatype.t) (t : 'a t) : 'b t =
  {
    comm = t.comm;
    dt;
    local = Array.mapi (fun j x -> f (t.offset + j) x) t.local;
    offset = t.offset;
    n_global = t.n_global;
  }

let reduce (op : 'a Reduce_op.t) ~(init : 'a) (t : 'a t) : 'a =
  let local = Array.fold_left (Reduce_op.apply op) init t.local in
  Kamping.Collectives.allreduce_single t.comm t.dt op local

(* Even redistribution: every rank ends with floor/ceil(n/p) elements, in
   global order.  One alltoallv. *)
let balance (t : 'a t) : 'a t =
  let p = Kamping.Communicator.size t.comm in
  let n = t.n_global in
  let chunk = (n + p - 1) / p in
  let target_lo r = Int.min n (r * chunk) in
  let target_hi r = Int.min n (target_lo r + chunk) in
  (* Which of my elements go to which rank: element with global index g
     belongs to rank g / chunk. *)
  let send_counts = Array.make p 0 in
  Array.iteri
    (fun j _ ->
      let g = t.offset + j in
      send_counts.(Int.min (p - 1) (g / chunk)) <-
        send_counts.(Int.min (p - 1) (g / chunk)) + 1)
    t.local;
  let received = Kamping.Collectives.alltoallv t.comm t.dt ~send_counts t.local in
  let r = Kamping.Communicator.rank t.comm in
  (* Senders with lower ranks hold lower global indices, so arrival order
     (grouped by source rank) is already global order. *)
  if Array.length received <> target_hi r - target_lo r then
    Errdefs.usage_error "Dist_array.balance: expected %d elements, got %d"
      (target_hi r - target_lo r) (Array.length received);
  { t with local = received; offset = target_lo r }

(* Keep the elements satisfying [pred]; the result is rebalanced. *)
let filter (pred : 'a -> bool) (t : 'a t) : 'a t =
  let kept = Array.of_list (List.filter pred (Array.to_list t.local)) in
  balance (of_local t.comm t.dt kept)

(* Globally sort (ascending by [compare]); the result is rebalanced to an
   even distribution. *)
let sort ?compare:(cmp = Stdlib.compare) (t : 'a t) : 'a t =
  let sorted = Sorter.sort t.comm t.dt ~compare:cmp t.local in
  balance (of_local t.comm t.dt sorted)

(* The MapReduce shuffle: key every element, hash-partition by key, fold
   values with equal keys.  Returns (key, aggregate) pairs distributed by
   key hash.  [combine] must be associative. *)
let reduce_by_key (t : 'a t) ~(key_dt : 'k Datatype.t) ~(value_dt : 'v Datatype.t)
    ~(key_of : 'a -> 'k) ~(value_of : 'a -> 'v) ~(combine : 'v -> 'v -> 'v) :
    ('k * 'v) array =
  let p = Kamping.Communicator.size t.comm in
  let pair_dt = Datatype.pair key_dt value_dt in
  Datatype.with_committed pair_dt @@ fun pair_dt ->
  (* Local pre-aggregation (the combiner optimization). *)
  let local_agg : ('k, 'v) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun x ->
      let k = key_of x and v = value_of x in
      match Hashtbl.find_opt local_agg k with
      | Some v0 -> Hashtbl.replace local_agg k (combine v0 v)
      | None -> Hashtbl.replace local_agg k v)
    t.local;
  (* Hash partition. *)
  let table : (int, ('k * 'v) list) Hashtbl.t = Hashtbl.create p in
  Hashtbl.iter
    (fun k v ->
      let dest = Hashtbl.hash k mod p in
      Hashtbl.replace table dest ((k, v) :: (try Hashtbl.find table dest with Not_found -> [])))
    local_agg;
  let received = Kamping.Flatten.alltoallv t.comm pair_dt table in
  (* Final fold. *)
  let final : ('k, 'v) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (k, v) ->
      match Hashtbl.find_opt final k with
      | Some v0 -> Hashtbl.replace final k (combine v0 v)
      | None -> Hashtbl.replace final k v)
    received;
  let out = Hashtbl.fold (fun k v acc -> (k, v) :: acc) final [] in
  Array.of_list (List.sort compare out)

(* Materialize the whole array on every rank (small data only). *)
let to_global (t : 'a t) : 'a array =
  Kamping.Collectives.allgatherv t.comm t.dt t.local
