(* Shared pieces of the distributed suffix-array construction (paper
   §IV-A): text generation, the block distribution of text positions, and
   a sequential reference implementation for verification. *)

open Mpisim

let chunk ~n ~p = (n + p - 1) / p

let owner ~n ~p i =
  if i < 0 || i >= n then Errdefs.usage_error "suffix_array: position %d out of range" i;
  i / chunk ~n ~p

let my_range ~n ~p ~rank =
  let c = chunk ~n ~p in
  let first = Int.min n (rank * c) in
  let len = Int.max 0 (Int.min c (n - first)) in
  (first, len)

(* Deterministic random text over a small alphabet (small alphabets force
   many prefix-doubling rounds, the interesting case). *)
let random_text ~seed ~alphabet ~n ~p ~rank : char array =
  let first, len = my_range ~n ~p ~rank in
  Array.init len (fun j ->
      Char.chr (Char.code 'a' + Xoshiro.hash_int ~seed ~stream:31 ~counter:(first + j) ~bound:alphabet))

(* Periodic text: worst case for naive comparison, exercises late rounds. *)
let periodic_text ~period ~n ~p ~rank : char array =
  let first, len = my_range ~n ~p ~rank in
  Array.init len (fun j -> Char.chr (Char.code 'a' + ((first + j) mod period)))

(* Sequential reference: sort suffix indices by direct suffix comparison. *)
let sequential_suffix_array (text : string) : int array =
  let n = String.length text in
  let idx = Array.init n Fun.id in
  let rec cmp_suffix a b =
    if a = n then -1
    else if b = n then 1
    else begin
      let ca = text.[a] and cb = text.[b] in
      if ca <> cb then Char.compare ca cb else cmp_suffix (a + 1) (b + 1)
    end
  in
  Array.sort cmp_suffix idx;
  idx
