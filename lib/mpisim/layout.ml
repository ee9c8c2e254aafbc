(* MPL-style layouts: programmatic views over chunks of contiguous memory
   (paper §II and §III-D2 — the type-construction approach the authors
   plan to integrate as the default way of building dynamic types).

   A layout selects element positions out of a flat array:

   - [contiguous n]                  positions 0..n-1
   - [vector ~count ~blocklen ~stride]   [count] blocks of [blocklen],
                                     each [stride] apart (halo exchanges,
                                     matrix columns, ...)
   - [indexed blocks]                explicit (displacement, length) pairs
   - [offset k l]                    l shifted by k positions
   - [concat ls]                     positions of each layout in turn

   [extract] gathers the selected elements into a packed array;
   [scatter_into] writes a packed array back into the selected positions. *)

type t =
  | Contiguous of int
  | Vector of { count : int; blocklen : int; stride : int }
  | Indexed of (int * int) list  (* (displacement, length) *)
  | Offset of int * t
  | Concat of t list

let contiguous n =
  if n < 0 then Errdefs.usage_error "Layout.contiguous: negative count";
  Contiguous n

let vector ~count ~blocklen ~stride =
  if count < 0 || blocklen < 0 then Errdefs.usage_error "Layout.vector: negative size";
  if stride < blocklen then
    Errdefs.usage_error "Layout.vector: stride %d smaller than block length %d" stride
      blocklen;
  Vector { count; blocklen; stride }

let indexed blocks =
  List.iter
    (fun (d, l) ->
      if d < 0 || l < 0 then Errdefs.usage_error "Layout.indexed: negative block")
    blocks;
  Indexed blocks

let offset k l =
  if k < 0 then Errdefs.usage_error "Layout.offset: negative offset";
  Offset (k, l)

let concat ls = Concat ls

let rec element_count = function
  | Contiguous n -> n
  | Vector { count; blocklen; _ } -> count * blocklen
  | Indexed blocks -> List.fold_left (fun acc (_, l) -> acc + l) 0 blocks
  | Offset (_, l) -> element_count l
  | Concat ls -> List.fold_left (fun acc l -> acc + element_count l) 0 ls

(* One past the highest position the layout touches. *)
let rec extent = function
  | Contiguous n -> n
  | Vector { count; blocklen; stride } ->
      if count = 0 || blocklen = 0 then 0 else ((count - 1) * stride) + blocklen
  | Indexed blocks -> List.fold_left (fun acc (d, l) -> Int.max acc (d + l)) 0 blocks
  | Offset (k, l) -> k + extent l
  | Concat ls -> List.fold_left (fun acc l -> Int.max acc (extent l)) 0 ls

(* Apply [f] to every selected position, in layout order. *)
let iter_positions (layout : t) (f : int -> unit) =
  let rec go base = function
    | Contiguous n ->
        for i = 0 to n - 1 do
          f (base + i)
        done
    | Vector { count; blocklen; stride } ->
        for b = 0 to count - 1 do
          for i = 0 to blocklen - 1 do
            f (base + (b * stride) + i)
          done
        done
    | Indexed blocks ->
        List.iter
          (fun (d, l) ->
            for i = 0 to l - 1 do
              f (base + d + i)
            done)
          blocks
    | Offset (k, l) -> go (base + k) l
    | Concat ls -> List.iter (go base) ls
  in
  go 0 layout

let positions layout =
  let acc = ref [] in
  iter_positions layout (fun i -> acc := i :: !acc);
  List.rev !acc

(* Gather the selected elements of [src] into a fresh packed array. *)
let extract (layout : t) (src : 'a array) : 'a array =
  let n = element_count layout in
  if extent layout > Array.length src then
    Errdefs.usage_error "Layout.extract: layout extent %d exceeds array length %d"
      (extent layout) (Array.length src);
  if n = 0 then [||]
  else begin
    let out = Array.make n src.(0) in
    let j = ref 0 in
    iter_positions layout (fun i ->
        out.(!j) <- src.(i);
        incr j);
    out
  end

(* Write packed elements back into the selected positions of [dst]. *)
let scatter_into (layout : t) ~(packed : 'a array) (dst : 'a array) : unit =
  if element_count layout <> Array.length packed then
    Errdefs.usage_error "Layout.scatter_into: %d packed elements for a layout of %d"
      (Array.length packed) (element_count layout);
  if extent layout > Array.length dst then
    Errdefs.usage_error "Layout.scatter_into: layout extent exceeds array length";
  let j = ref 0 in
  iter_positions layout (fun i ->
      dst.(i) <- packed.(!j);
      incr j)
