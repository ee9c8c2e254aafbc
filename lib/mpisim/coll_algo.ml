(* Collective-algorithm selection.  See the interface for the contract.

   Selection must be deterministic and identical on every rank: it is a
   pure function of the run's model (its costs and pins) and the call
   signature.  The counter/span name tables are precomputed so the
   dispatch path in Coll allocates nothing.  The module also keeps the
   internal-tag table, which reuses the span names. *)

type op = Net_model.coll_op = Allreduce | Allgather | Bcast | Reduce_scatter

type algo = Net_model.coll_algo =
  | Reduce_bcast
  | Recursive_doubling
  | Rabenseifner
  | Bruck
  | Ring
  | Binomial
  | Scatter_allgather
  | Reduce_scatterv
  | Pairwise

let op_name = function
  | Allreduce -> "allreduce"
  | Allgather -> "allgather"
  | Bcast -> "bcast"
  | Reduce_scatter -> "reduce_scatter"

let algo_name = function
  | Reduce_bcast -> "reduce_bcast"
  | Recursive_doubling -> "recursive_doubling"
  | Rabenseifner -> "rabenseifner"
  | Bruck -> "bruck"
  | Ring -> "ring"
  | Binomial -> "binomial"
  | Scatter_allgather -> "scatter_allgather"
  | Reduce_scatterv -> "reduce_scatterv"
  | Pairwise -> "pairwise"

let op_index = function Allreduce -> 0 | Allgather -> 1 | Bcast -> 2 | Reduce_scatter -> 3
let all_ops = [| Allreduce; Allgather; Bcast; Reduce_scatter |]

let algo_index = function
  | Reduce_bcast -> 0
  | Recursive_doubling -> 1
  | Rabenseifner -> 2
  | Bruck -> 3
  | Ring -> 4
  | Binomial -> 5
  | Scatter_allgather -> 6
  | Reduce_scatterv -> 7
  | Pairwise -> 8

let all_algos =
  [|
    Reduce_bcast; Recursive_doubling; Rabenseifner; Bruck; Ring; Binomial; Scatter_allgather;
    Reduce_scatterv; Pairwise;
  |]

let valid_for op algo =
  match (op, algo) with
  | Allreduce, (Reduce_bcast | Recursive_doubling | Rabenseifner) -> true
  | Allgather, (Bruck | Ring) -> true
  | Bcast, (Binomial | Scatter_allgather) -> true
  | Reduce_scatter, (Reduce_scatterv | Pairwise) -> true
  | _ -> false

(* Algorithms that reassociate the reduction across non-contiguous rank
   groups; only safe for commutative operators. *)
let needs_commutative = function
  | Recursive_doubling | Rabenseifner | Pairwise -> true
  | _ -> false

let counter_names =
  Array.map
    (fun o -> Array.map (fun a -> "coll.algo." ^ op_name o ^ "." ^ algo_name a) all_algos)
    all_ops

let span_names =
  Array.map (fun o -> Array.map (fun a -> op_name o ^ "." ^ algo_name a) all_algos) all_ops

let counter_name op algo = counter_names.(op_index op).(algo_index algo)
let n_slots = Array.length all_ops * Array.length all_algos
let slot op algo = (op_index op * Array.length all_algos) + algo_index algo
let span_name op algo = span_names.(op_index op).(algo_index algo)

(* --- the internal-tag table ------------------------------------------- *)

(* Op id [id] is the tag [tag_base + id]; a posted or persistent instance
   shifts every id into a window of its own, so an id and its name are
   found again as the tag's offset in the window.  Each id belongs to the
   one protocol that sends on it. *)
let tag_window = 32
let first_window_op = 1 lsl 16
let tag_base = Mailbox.max_user_tag + 1

(* The name of each op id, listed by id; never written. *)
let tag_names =
  [|
    "barrier"; span_name Bcast Binomial; "gather"; "scatter"; span_name Allgather Bruck;
    "allgatherv"; "alltoall"; "alltoallv"; "alltoallw"; "reduce"; "scan";
    "neighbor_allgather"; span_name Allreduce Recursive_doubling;
    span_name Reduce_scatter Pairwise; span_name Bcast Scatter_allgather;
    span_name Bcast Scatter_allgather; span_name Allreduce Rabenseifner;
    span_name Allgather Ring; "exscan"; "neighbor_alltoallv"; "comm_split";
    "halo_exchange.to_prev"; "halo_exchange.to_next";
  |]

let reserve id name =
  if tag_names.(id) <> name then invalid_arg ("Coll_algo.reserve: id of " ^ name);
  tag_base + id

let tag_barrier = reserve 0 "barrier"
let tag_bcast_binomial = reserve 1 (span_name Bcast Binomial)
let tag_gather = reserve 2 "gather"
let tag_scatter = reserve 3 "scatter"
let tag_allgather_bruck = reserve 4 (span_name Allgather Bruck)
let tag_allgatherv = reserve 5 "allgatherv"
let tag_alltoall = reserve 6 "alltoall"
let tag_alltoallv = reserve 7 "alltoallv"
let tag_alltoallw = reserve 8 "alltoallw"
let tag_reduce = reserve 9 "reduce"
let tag_scan = reserve 10 "scan"
let tag_neighbor_allgather = reserve 11 "neighbor_allgather"
let tag_allreduce_rdbl = reserve 12 (span_name Allreduce Recursive_doubling)
let tag_reduce_scatter_pairwise = reserve 13 (span_name Reduce_scatter Pairwise)

(* The scatter and ring phases of one bcast algorithm. *)
let tag_bcast_scatter = reserve 14 (span_name Bcast Scatter_allgather)
let tag_bcast_ring = reserve 15 (span_name Bcast Scatter_allgather)
let tag_allreduce_rabenseifner = reserve 16 (span_name Allreduce Rabenseifner)
let tag_allgather_ring = reserve 17 (span_name Allgather Ring)
let tag_exscan = reserve 18 "exscan"
let tag_neighbor_alltoallv = reserve 19 "neighbor_alltoallv"
let tag_comm_split = reserve 20 "comm_split"
let tag_halo_to_prev = reserve 21 "halo_exchange.to_prev"
let tag_halo_to_next = reserve 22 "halo_exchange.to_next"
let p2p_name = "p2p"

let tag_name tag =
  if tag < tag_base then p2p_name
  else
    let op = tag - tag_base in
    let id = if op >= first_window_op then (op - first_window_op) mod tag_window else op in
    if id < Array.length tag_names then tag_names.(id) else "internal"

let describe_tag tag = if tag < tag_base then string_of_int tag else tag_name tag

(* --- pins -------------------------------------------------------------- *)

type spec = (op * algo option) list

(* Pins live in the model, so each run carries its own. *)
let pin spec (model : Net_model.t) = { model with pins = spec @ model.pins }

(* The first pin for [op]; returns the stored option and builds no
   closure, so the per-call lookup allocates nothing. *)
let rec first_pin op = function
  | [] -> None
  | (o, a) :: rest -> if o = op then a else first_pin op rest

let pinned (model : Net_model.t) op = first_pin op model.pins

let op_of_name = function
  | "allreduce" -> Some Allreduce
  | "allgather" -> Some Allgather
  | "bcast" -> Some Bcast
  | "reduce_scatter" -> Some Reduce_scatter
  | _ -> None

let algo_of_name n = Array.find_opt (fun a -> algo_name a = n) all_algos

let parse_spec s =
  let entries =
    String.split_on_char ',' s
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  let parse_entry e =
    match String.index_opt e '=' with
    | None -> Error (Printf.sprintf "coll-algo entry %S is not of the form op=alg" e)
    | Some i -> (
        let opname = String.trim (String.sub e 0 i) in
        let algname = String.trim (String.sub e (i + 1) (String.length e - i - 1)) in
        match op_of_name opname with
        | None -> Error (Printf.sprintf "unknown collective %S in coll-algo spec" opname)
        | Some op ->
            if algname = "auto" then Ok (op, None)
            else (
              match algo_of_name algname with
              | None -> Error (Printf.sprintf "unknown algorithm %S in coll-algo spec" algname)
              | Some a when not (valid_for op a) ->
                  Error
                    (Printf.sprintf "algorithm %s does not implement %s" algname opname)
              | Some a -> Ok (op, Some a)))
  in
  List.fold_left
    (fun acc e ->
      match (acc, parse_entry e) with
      | Error _, _ -> acc
      | _, Error m -> Error m
      | Ok l, Ok kv -> Ok (kv :: l))
    (Ok []) entries
  |> Result.map List.rev

(* --- integer helpers -------------------------------------------------- *)

let ceil_log2 n =
  if n < 1 then invalid_arg "Coll_algo.ceil_log2";
  let k = ref 0 in
  let v = ref 1 in
  while !v < n do
    incr k;
    v := !v lsl 1
  done;
  !k

let floor_pow2 n =
  if n < 1 then invalid_arg "Coll_algo.floor_pow2";
  let v = ref 1 in
  while !v lsl 1 <= n do
    v := !v lsl 1
  done;
  !v

(* --- selection -------------------------------------------------------- *)

(* The cheapest algorithm by [m]'s own terms.  Runtime and P2p charge a
   message of b bytes s = o_s + (byte_time + copy_byte_time) b to send,
   [latency] in flight and r = o_r + copy_byte_time b to receive, so a
   critical-path round costs hop = s + l + r; each closed form counts an
   algorithm's rounds and bytes, off a power of two ([x] = 1) with the
   pof2 preamble and the waits that cost less (DESIGN.md §6).  Local
   floats only, so a call allocates nothing; a tie keeps the first. *)
let auto (m : Net_model.t) op ~bytes ~size:p ~commutative =
  let l = m.latency and o_s = m.send_overhead and o_r = m.recv_overhead in
  let c = m.copy_byte_time and sb = m.byte_time +. m.copy_byte_time in
  let n = float_of_int bytes and blk = float_of_int bytes /. float_of_int p in
  let s = o_s +. (sb *. n) and r = o_r +. (c *. n) and a = o_s +. l +. o_r in
  let hop = s +. l +. r and b' = sb +. c in
  let pof2 = floor_pow2 p and k = float_of_int (ceil_log2 p) and bb = b' *. blk in
  let lg = float_of_int (ceil_log2 pof2) and rem = p - pof2 in
  let x = if rem = 0 then 0. else 1. and rounds = float_of_int (p - 1) in
  match op with
  | Allreduce when not commutative -> Reduce_bcast
  | Allreduce ->
      (* Off a power of two: the unfold's hop after either lg full hops,
         or the preamble's hop and lg rounds of which only ceil_log2 rem,
         the most bits two preamble ranks differ in, wait for latency. *)
      let late = hop -. (l *. (lg -. float_of_int (ceil_log2 (Int.max rem 1)))) in
      let rdbl = (lg *. hop) +. (x *. (hop +. if late > 0. then late else 0.)) in
      let rabenseifner =
        2. *. ((x *. hop) +. (lg *. a) +. (b' *. (n -. (n /. float_of_int pof2))))
      in
      let reduce_bcast = (2. *. k *. hop) -. (x *. (hop +. l)) in
      if rdbl <= rabenseifner && rdbl <= reduce_bcast then Recursive_doubling
      else if rabenseifner <= reduce_bcast then Rabenseifner
      else Reduce_bcast
  | Allgather ->
      (* [bytes] is one block; a ring of empty blocks sends nothing. *)
      let ring = if bytes = 0 then 0. else rounds *. hop in
      if (k *. a) +. (b' *. rounds *. n) <= ring then Bruck else Ring
  | Bcast ->
      (* The binomial scatter: a subtree of q blocks, q not a power of two,
         ends after its first child's subtree of the q - top blocks above
         its top power of two or after its second child's full one. *)
      let g = ref 0. and off = ref 0. and q = ref p in
      while !q land (!q - 1) <> 0 do
        let top = floor_pow2 !q in
        let first = float_of_int (!q - top) *. blk in
        let second =
          !off +. o_s +. (sb *. first) +. (float_of_int (ceil_log2 top) *. a)
          +. (bb *. float_of_int (top - 1))
        in
        if second > !g then g := second;
        off := !off +. a +. (b' *. first);
        q := !q - top
      done;
      let last =
        !off +. (float_of_int (ceil_log2 !q) *. a) +. (bb *. float_of_int (!q - 1))
      in
      let scatter = (if last > !g then last else !g) +. (rounds *. (a +. bb)) in
      if (k *. hop) -. (x *. (l +. r)) <= scatter then Binomial else Scatter_allgather
  | Reduce_scatter when not commutative -> Reduce_scatterv
  | Reduce_scatter ->
      (* Binomial reduce, the dense count scan, p-1 block sends to land. *)
      let reduce_scatterv =
        (k *. hop) -. (x *. (s +. l)) +. (float_of_int p *. m.dense_scan_byte)
        +. (rounds *. (o_s +. (sb *. blk))) +. l +. o_r +. (c *. blk)
      in
      if reduce_scatterv <= rounds *. (a +. bb) then Reduce_scatterv else Pairwise

let choose (model : Net_model.t) op ~bytes ~size ~commutative =
  match pinned model op with
  | Some a when commutative || not (needs_commutative a) -> a
  | _ -> auto model op ~bytes ~size ~commutative
