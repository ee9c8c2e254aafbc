(* Shared, communication-free parts of the sample sort implementations.

   Following the paper's methodology (§IV-A), everything that does not
   depend on the binding style — sampling, splitter selection, bucketing,
   local sorting — is extracted here, so the per-binding files differ only
   in how they talk to the network and the lines-of-code comparison
   (Table I) measures exactly that. *)

open Mpisim

let num_samples ~p =
  (16 * int_of_float (ceil (log (float_of_int (Int.max 2 p)) /. log 2.))) + 1

let draw_samples ~rank ~seed (n : int) (data : int array) : int array =
  if Array.length data = 0 then [||]
  else begin
    let rng = Xoshiro.create ~seed ~stream:rank in
    Array.init n (fun _ -> data.(Xoshiro.next_int rng ~bound:(Array.length data)))
  end

(* p-1 equidistant splitters from the sorted global sample. *)
let pick_splitters ~p (sorted_samples : int array) : int array =
  let m = Array.length sorted_samples in
  if m = 0 then [||]
  else Array.init (p - 1) (fun i -> sorted_samples.(Int.min (m - 1) ((i + 1) * m / p)))

let bucket_of (splitters : int array) (x : int) : int =
  let lo = ref 0 and hi = ref (Array.length splitters) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if splitters.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Group [data] by destination bucket; returns (grouped data, counts). *)
let build_buckets ~p (splitters : int array) (data : int array) : int array * int array =
  let counts = Array.make p 0 in
  Array.iter (fun x -> counts.(bucket_of splitters x) <- counts.(bucket_of splitters x) + 1) data;
  let displs = Array.make p 0 in
  for i = 1 to p - 1 do
    displs.(i) <- displs.(i - 1) + counts.(i - 1)
  done;
  let out = Array.make (Array.length data) 0 in
  let cursor = Array.copy displs in
  Array.iter
    (fun x ->
      let b = bucket_of splitters x in
      out.(cursor.(b)) <- x;
      cursor.(b) <- cursor.(b) + 1)
    data;
  (out, counts)

let local_sort (data : int array) : int array =
  let out = Array.copy data in
  Array.sort compare out;
  out

let default_seed = 0xBEEF
