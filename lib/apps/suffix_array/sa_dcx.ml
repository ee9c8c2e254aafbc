(* Distributed suffix-array construction with the DC3 / skew algorithm
   (Kärkkäinen-Sanders [25]) — the paper's second suffix-sorting
   application (§IV-A, "DCX"), KaMPIng style.

   The difference cover {1, 2} mod 3:

   1. sample suffixes (positions i mod 3 <> 0, plus a dummy position n
      when n mod 3 = 1, as in the reference algorithm) are named by their
      character triples via one distributed sort + prefix sums;
   2. if names are not unique, recurse on the reduced text formed by the
      names (mod-1 positions then mod-2 positions); small subproblems are
      gathered and solved sequentially;
   3. every suffix gets a constant-size comparison tuple (two characters
      plus up to three sample ranks), and a single distributed sort with
      the DC3 comparator produces the suffix array.

   All exchanges are the binding layer's sparse one-liners; the heavy
   lifting is the distributed sorter plugin.  Texts are block-distributed
   as in {!Sa_kamping}; values are positive ints (0 is the sentinel). *)

open Mpisim

let base_threshold = 256

(* Sequential suffix sort of a positive-int text (base case + oracle). *)
let sequential_suffix_array_int (t : int array) : int array =
  let n = Array.length t in
  let idx = Array.init n Fun.id in
  let rec cmp a b =
    if a = n then -1
    else if b = n then 1
    else if t.(a) <> t.(b) then compare t.(a) t.(b)
    else cmp (a + 1) (b + 1)
  in
  Array.sort cmp idx;
  idx

(* ------------------------------------------------------------------ *)
(* Generic sparse "push" of values to other positions' owners: for every
   (target position, value) pair, deliver to the block owner of the
   target.  Returns the pairs addressed to us. *)

let push_pairs comm ~n ~p (pairs : (int * int) list) : (int * int) array =
  let table : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((pos, _) as pair) ->
      let dest = Sa_common.owner ~n ~p pos in
      Hashtbl.replace table dest (pair :: (try Hashtbl.find table dest with Not_found -> [])))
    pairs;
  Datatype.with_committed (Datatype.pair Datatype.int Datatype.int) @@ fun dt ->
  Kamping.Flatten.alltoallv comm dt table

(* ------------------------------------------------------------------ *)
(* The merge tuple: everything needed to compare any two suffixes. *)

type mtuple = { pos : int; cls : int; c0 : int; c1 : int; r0 : int; r1 : int; r2 : int }

(* Seven ints on the wire; built per sort (see {!push_pairs}). *)
let mtuple_dt () : mtuple Datatype.t =
  Datatype.(
    record "dc3_tuple"
      [
        field "pos" int (fun t -> t.pos);
        field "cls" int (fun t -> t.cls);
        field "c0" int (fun t -> t.c0);
        field "c1" int (fun t -> t.c1);
        field "r0" int (fun t -> t.r0);
        field "r1" int (fun t -> t.r1);
        field "r2" int (fun t -> t.r2);
      ]
      (fun pos cls c0 c1 r0 r1 r2 -> { pos; cls; c0; c1; r0; r1; r2 }))

(* The DC3 comparator: constant-time suffix comparison via the tuples. *)
let cmp_mtuple (a : mtuple) (b : mtuple) : int =
  let lex2 (x1, x2) (y1, y2) = if x1 <> y1 then compare x1 y1 else compare x2 y2 in
  let lex3 (x1, x2, x3) (y1, y2, y3) =
    if x1 <> y1 then compare x1 y1
    else if x2 <> y2 then compare x2 y2
    else compare x3 y3
  in
  match (a.cls, b.cls) with
  | 0, 0 -> lex2 (a.c0, a.r1) (b.c0, b.r1)
  | 0, 1 -> lex2 (a.c0, a.r1) (b.c0, b.r1)
  | 1, 0 -> lex2 (a.c0, a.r1) (b.c0, b.r1)
  | 0, 2 -> lex3 (a.c0, a.c1, a.r2) (b.c0, b.c1, b.r2)
  | 2, 0 -> lex3 (a.c0, a.c1, a.r2) (b.c0, b.c1, b.r2)
  | _, _ -> compare a.r0 b.r0

(* ------------------------------------------------------------------ *)
(* Name assignment: sort keyed items, flag key changes, prefix-sum.
   Returns (distinct count, (payload, 0-based name) pairs local to the
   sorted distribution). *)

let assign_names comm (dt : ('k * int) Datatype.t) ~(compare_key : 'k -> 'k -> int)
    (items : ('k * int) array) : int * ('k * int * int) array =
  let cmp (ka, pa) (kb, pb) =
    let c = compare_key ka kb in
    if c <> 0 then c else compare pa pb
  in
  let sorted = Kamping_plugins.Sorter.sort comm dt ~compare:cmp items in
  let len = Array.length sorted in
  (* Boundary keys from the previous non-empty rank. *)
  let counts = Kamping.Collectives.allgather comm Datatype.int [| len |] in
  let last_key_block = if len > 0 then [| sorted.(len - 1) |] else [||] in
  let lasts = Kamping.Collectives.allgatherv comm dt last_key_block in
  let nonempty_before = ref 0 in
  for r = 0 to Kamping.Communicator.rank comm - 1 do
    if counts.(r) > 0 then incr nonempty_before
  done;
  let prev_key = if !nonempty_before = 0 then None else Some (fst lasts.(!nonempty_before - 1)) in
  let flags =
    Array.mapi
      (fun j (k, _) ->
        let prev = if j = 0 then prev_key else Some (fst sorted.(j - 1)) in
        match prev with Some pk when compare_key pk k = 0 -> 0 | _ -> 1)
      sorted
  in
  let local_sum = Array.fold_left ( + ) 0 flags in
  let offset =
    Kamping.Collectives.exscan_single_or comm Datatype.int Reduce_op.int_sum ~init:0
      local_sum
  in
  let distinct =
    Kamping.Collectives.allreduce_single comm Datatype.int Reduce_op.int_sum local_sum
  in
  let running = ref offset in
  let named =
    Array.mapi
      (fun j (k, p) ->
        running := !running + flags.(j);
        (k, p, !running - 1))
      sorted
  in
  (distinct, named)

(* ------------------------------------------------------------------ *)
(* The recursive core: ranks (0-based, among all suffixes) of every local
   position of a block-distributed positive-int text. *)

let rec dcx_ranks (comm : Kamping.Communicator.t) (text : int array) : int array =
  let p = Kamping.Communicator.size comm in
  let rank = Kamping.Communicator.rank comm in
  let n_local = Array.length text in
  let n = Kamping.Collectives.allreduce_single comm Datatype.int Reduce_op.int_sum n_local in
  let first, expected = Sa_common.my_range ~n ~p ~rank in
  if expected <> n_local then
    Errdefs.usage_error "dcx: text must be block-distributed";
  if n <= base_threshold then begin
    (* Small problem: solve everywhere from the gathered text. *)
    let full = Kamping.Collectives.allgatherv comm Datatype.int text in
    let sa = sequential_suffix_array_int full in
    let isa = Array.make n 0 in
    Array.iteri (fun r i -> isa.(i) <- r) sa;
    Array.sub isa first n_local
  end
  else begin
    (* Character lookahead: value at i+1 and i+2 (0 past the end). *)
    let fetch ~k (values : int array) =
      let pairs = ref [] in
      Array.iteri
        (fun j v ->
          let gj = first + j in
          if gj >= k then pairs := (gj - k, v) :: !pairs)
        values;
      let incoming = push_pairs comm ~n ~p !pairs in
      let out = Array.make (Int.max 1 n_local) 0 in
      Array.iter (fun (i, v) -> if i >= first && i - first < n_local then out.(i - first) <- v) incoming;
      if n_local = 0 then [||] else Array.sub out 0 n_local
    in
    let next1 = fetch ~k:1 text in
    let next2 = fetch ~k:2 text in
    (* Sample positions: i mod 3 <> 0, plus the dummy position n when
       n mod 3 = 1 (owned by the holder of position n-1). *)
    let has_dummy = n mod 3 = 1 in
    let owns_dummy = has_dummy && n_local > 0 && first + n_local = n in
    let m1 = if has_dummy then (n + 2) / 3 else (n + 1) / 3 in
    let m2 = n / 3 in
    let m = m1 + m2 in
    let r_index i = if i mod 3 = 1 then (i - 1) / 3 else m1 + ((i - 2) / 3) in
    let samples = ref [] in
    for j = 0 to n_local - 1 do
      let i = first + j in
      if i mod 3 <> 0 then
        samples := ((text.(j), next1.(j), next2.(j)), i) :: !samples
    done;
    if owns_dummy then samples := ((0, 0, 0), n) :: !samples;
    let triple_key_dt =
      Datatype.pair
        (Datatype.triple Datatype.int Datatype.int Datatype.int)
        Datatype.int
    in
    let distinct, named =
      Datatype.with_committed triple_key_dt @@ fun dt ->
      assign_names comm dt ~compare_key:compare (Array.of_list !samples)
    in
    (* rank12: rank among sample suffixes, for every sample position. *)
    let rank12_pairs =
      if distinct = m then
        (* Names are unique: they are the sample ranks already. *)
        Array.to_list (Array.map (fun (_, pos, name) -> (pos, name)) named)
      else begin
        (* Build the reduced text from the names and recurse. *)
        let r_updates =
          Array.to_list (Array.map (fun (_, pos, name) -> (r_index pos, name + 1)) named)
        in
        let incoming = push_pairs comm ~n:m ~p r_updates in
        let r_first, r_len = Sa_common.my_range ~n:m ~p ~rank in
        let reduced = Array.make (Int.max 1 r_len) 0 in
        Array.iter (fun (k, v) -> reduced.(k - r_first) <- v) incoming;
        let reduced = if r_len = 0 then [||] else Array.sub reduced 0 r_len in
        let reduced_ranks = dcx_ranks comm reduced in
        (* Map reduced positions back to text positions. *)
        let back k = if k < m1 then (3 * k) + 1 else (3 * (k - m1)) + 2 in
        Array.to_list (Array.mapi (fun j rk -> (back (r_first + j), rk)) reduced_ranks)
      end
    in
    (* Distribute rank12 to the owners of i, i-1 and i-2 so every position
       can look up rank12 at itself, i+1 and i+2. *)
    let deliveries =
      List.concat_map
        (fun (i, rk) ->
          (* Encode the offset in the key's low bits: target position and
             which slot it fills. *)
          List.filter_map
            (fun d ->
              let target = i - d in
              if target >= 0 && target < n then Some ((target * 4) + d, rk) else None)
            [ 0; 1; 2 ])
        rank12_pairs
    in
    (* push_pairs routes by position; divide the encoded key back out. *)
    let table : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun ((key, _) as pair) ->
        let dest = Sa_common.owner ~n ~p (key / 4) in
        Hashtbl.replace table dest (pair :: (try Hashtbl.find table dest with Not_found -> [])))
      deliveries;
    let incoming =
      Datatype.with_committed (Datatype.pair Datatype.int Datatype.int) @@ fun dt ->
      Kamping.Flatten.alltoallv comm dt table
    in
    let rk_self = Array.make (Int.max 1 n_local) 0 in
    let rk_next1 = Array.make (Int.max 1 n_local) 0 in
    let rk_next2 = Array.make (Int.max 1 n_local) 0 in
    Array.iter
      (fun (key, rk) ->
        let i = key / 4 and d = key mod 4 in
        let j = i - first in
        if j >= 0 && j < n_local then
          match d with
          | 0 -> rk_self.(j) <- rk
          | 1 -> rk_next1.(j) <- rk
          | _ -> rk_next2.(j) <- rk)
      incoming;
    (* Merge tuples for every position; one global sort finishes. *)
    let tuples =
      Array.init n_local (fun j ->
          let i = first + j in
          {
            pos = i;
            cls = i mod 3;
            c0 = text.(j);
            c1 = next1.(j);
            r0 = rk_self.(j);
            r1 = rk_next1.(j);
            r2 = rk_next2.(j);
          })
    in
    let sorted =
      Datatype.with_committed (mtuple_dt ()) @@ fun dt ->
      Kamping_plugins.Sorter.sort comm dt ~compare:cmp_mtuple tuples
    in
    (* Ranks: global index in sorted order, shipped back to owners. *)
    let offset =
      Kamping.Collectives.exscan_single_or comm Datatype.int Reduce_op.int_sum ~init:0
        (Array.length sorted)
    in
    let rank_updates =
      Array.to_list (Array.mapi (fun j t -> (t.pos, offset + j)) sorted)
    in
    let incoming = push_pairs comm ~n ~p rank_updates in
    let ranks = Array.make (Int.max 1 n_local) 0 in
    Array.iter (fun (i, rk) -> ranks.(i - first) <- rk) incoming;
    if n_local = 0 then [||] else Array.sub ranks 0 n_local
  end

(* Public entry point: the suffix array of a block-distributed char text,
   returned in sorted-order distribution (compatible with
   {!Sa_kamping.suffix_array} and the sequential reference). *)
let suffix_array (mpi : Comm.t) (text : char array) : int array =
  let comm = Kamping.Communicator.of_mpi mpi in
  let int_text = Array.map (fun c -> Char.code c + 1) text in
  let ranks = dcx_ranks comm int_text in
  (* Sort (rank, position) pairs to obtain positions in suffix order. *)
  let p = Kamping.Communicator.size comm in
  let n_local = Array.length text in
  let n = Kamping.Collectives.allreduce_single comm Datatype.int Reduce_op.int_sum n_local in
  let first, _ = Sa_common.my_range ~n ~p ~rank:(Kamping.Communicator.rank comm) in
  let keyed = Array.mapi (fun j r -> (r, first + j)) ranks in
  let sorted =
    Datatype.with_committed (Datatype.pair Datatype.int Datatype.int) @@ fun dt ->
    Kamping_plugins.Sorter.sort comm dt ~compare keyed
  in
  Array.map snd sorted
