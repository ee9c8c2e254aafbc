(* STL-like distributed sorter plugin (paper §IV-A, Fig. 7): textbook
   sample sort [24].

   1. each rank draws 16 * log2(p) + 1 local samples;
   2. samples are allgathered and sorted; p-1 splitters are picked;
   3. local data is partitioned into p buckets by splitter binary search;
   4. one alltoallv redistributes the buckets;
   5. a local sort finishes.

   The output is globally sorted across ranks: every element on rank i
   precedes every element on rank i+1. *)

open Mpisim

let default_oversampling = 16

(* Index of the first bucket whose range contains [x]: the number of
   splitters strictly smaller than... we use upper-bound semantics so equal
   keys all land in the same bucket. *)
let bucket_of ~compare (splitters : 'a array) (x : 'a) : int =
  let lo = ref 0 and hi = ref (Array.length splitters) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare splitters.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let sort (comm : Kamping.Communicator.t) (dt : 'a Datatype.t)
    ?(compare : 'a -> 'a -> int = Stdlib.compare) ?(oversampling = default_oversampling)
    ?(seed = 0x5EED) (data : 'a array) : 'a array =
  let p = Kamping.Communicator.size comm in
  let r = Kamping.Communicator.rank comm in
  if p = 1 then begin
    let out = Array.copy data in
    Array.sort compare out;
    out
  end
  else begin
    let rng = Xoshiro.create ~seed ~stream:r in
    let num_samples =
      (oversampling * int_of_float (ceil (log (float_of_int p) /. log 2.))) + 1
    in
    let local_samples =
      if Array.length data = 0 then [||]
      else
        Array.init num_samples (fun _ ->
            data.(Xoshiro.next_int rng ~bound:(Array.length data)))
    in
    let global_samples = Kamping.Collectives.allgatherv comm dt local_samples in
    Array.sort compare global_samples;
    (* p-1 equidistant splitters. *)
    let m = Array.length global_samples in
    let splitters =
      if m = 0 then [||]
      else Array.init (p - 1) (fun i -> global_samples.(min (m - 1) ((i + 1) * m / p)))
    in
    (* Partition into buckets. *)
    let send_counts = Array.make p 0 in
    Array.iter
      (fun x ->
        let b = bucket_of ~compare splitters x in
        send_counts.(b) <- send_counts.(b) + 1)
      data;
    let displs = Array.make p 0 in
    for i = 1 to p - 1 do
      displs.(i) <- displs.(i - 1) + send_counts.(i - 1)
    done;
    let grouped =
      if Array.length data = 0 then [||]
      else begin
        let out = Array.make (Array.length data) data.(0) in
        let cursor = Array.copy displs in
        Array.iter
          (fun x ->
            let b = bucket_of ~compare splitters x in
            out.(cursor.(b)) <- x;
            cursor.(b) <- cursor.(b) + 1)
          data;
        out
      end
    in
    let received = Kamping.Collectives.alltoallv comm dt ~send_counts grouped in
    Array.sort compare received;
    received
  end

(* Check the global sortedness invariant: local arrays sorted and rank
   boundaries ordered.  Collective; returns the same verdict on all ranks.
   Used by tests and by applications that verify their own output. *)
let is_globally_sorted (comm : Kamping.Communicator.t) (dt : 'a Datatype.t)
    ?(compare : 'a -> 'a -> int = Stdlib.compare) (data : 'a array) : bool =
  let locally_sorted = ref true in
  for i = 0 to Array.length data - 2 do
    if compare data.(i) data.(i + 1) > 0 then locally_sorted := false
  done;
  (* Compare boundary elements of adjacent non-empty ranks: allgather
     (first, last, non-empty) triples. *)
  let firsts =
    Kamping.Collectives.allgatherv comm dt
      (if Array.length data = 0 then [||] else [| data.(0) |])
  in
  let lasts =
    Kamping.Collectives.allgatherv comm dt
      (if Array.length data = 0 then [||] else [| data.(Array.length data - 1) |])
  in
  let boundaries_ok = ref true in
  for i = 0 to Array.length lasts - 2 do
    if compare lasts.(i) firsts.(i + 1) > 0 then boundaries_ok := false
  done;
  Kamping.Collectives.allreduce_single comm Datatype.bool Reduce_op.bool_and
    (!locally_sorted && !boundaries_ok)
