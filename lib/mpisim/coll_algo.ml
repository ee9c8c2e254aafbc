(* Collective-algorithm selection.  See the interface for the contract.

   Selection must be deterministic and identical on every rank: it is a
   pure function of the run's model (tuning and pins) and the call
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
let span_name op algo = span_names.(op_index op).(algo_index algo)

(* --- the internal-tag table ------------------------------------------- *)

(* Op id [id] is the tag [tag_base + id]; a posted or persistent instance
   shifts every id into a window of its own, so an id and its name are
   found again as the tag's offset in the window.  [reserve] hands each id
   out once, to the one protocol that sends on it. *)
let tag_window = 32
let first_window_op = 1 lsl 16
let tag_base = Mailbox.max_user_tag + 1
let tag_names = Array.make tag_window ""

let reserve id name =
  if tag_names.(id) <> "" then invalid_arg ("Coll_algo: tag id taken twice by " ^ name);
  tag_names.(id) <- name;
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
let tag_bcast_serialized = reserve 22 "bcast_serialized"
let tag_halo_to_next = reserve 23 "halo_exchange.to_next"
let p2p_name = "p2p"

let tag_name tag =
  if tag < tag_base then p2p_name
  else
    let op = tag - tag_base in
    let id = if op >= first_window_op then (op - first_window_op) mod tag_window else op in
    if id < tag_window && tag_names.(id) <> "" then tag_names.(id) else "internal"

let describe_tag tag = if tag < tag_base then string_of_int tag else tag_name tag

(* --- pins -------------------------------------------------------------- *)

type spec = (op * algo option) list

(* Pins live in the model, so each run carries its own. *)
let pin spec (model : Net_model.t) =
  { model with tuning = { model.tuning with pins = spec @ model.tuning.pins } }

(* The first pin for [op]; returns the stored option and builds no
   closure, so the per-call lookup allocates nothing. *)
let rec first_pin op = function
  | [] -> None
  | (o, a) :: rest -> if o = op then a else first_pin op rest

let pinned (model : Net_model.t) op = first_pin op model.tuning.pins

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

let auto (t : Net_model.coll_tuning) op ~bytes ~size ~commutative ~elems =
  match op with
  | Allreduce ->
      if not commutative then Reduce_bcast
        (* Rabenseifner needs at least one element per power-of-two block
           to beat the full-vector exchanges; MPICH uses the same guard. *)
      else if bytes <= t.Net_model.allreduce_rdbl_max_bytes || elems < floor_pow2 size then
        Recursive_doubling
      else Rabenseifner
  | Allgather -> if bytes >= t.Net_model.allgather_ring_min_bytes then Ring else Bruck
  | Bcast ->
      (* Below four ranks the scatter phase degenerates (blocks the size
         of the message over <= 3 nodes); binomial is never worse. *)
      if size >= 4 && bytes >= t.Net_model.bcast_scatter_min_bytes then Scatter_allgather
      else Binomial
  | Reduce_scatter ->
      if (not commutative) || bytes < t.Net_model.reduce_scatter_pairwise_min_bytes then
        Reduce_scatterv
      else Pairwise

let choose (model : Net_model.t) op ~bytes ~size ~commutative ~elems =
  match pinned model op with
  | Some a when commutative || not (needs_commutative a) -> a
  | _ -> auto model.Net_model.tuning op ~bytes ~size ~commutative ~elems
