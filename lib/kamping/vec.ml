(* Growable container used for output parameters.

   OCaml arrays are fixed-size, so resize policies need a vector type: a
   [Vec.t] is an array plus a logical length.  Collectives write results
   into vecs according to a {!Resize_policy.t}; see [write_array]. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let of_array a = { data = Array.copy a; len = Array.length a }

let length t = t.len

let capacity t = Array.length t.data

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- v

let to_array t = Array.sub t.data 0 t.len

let clear t = t.len <- 0

let push t v =
  if t.len = Array.length t.data then begin
    let cap = if t.len = 0 then 8 else t.len * 2 in
    let nd = Array.make cap v in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

(* Write [src] into [t] under [policy]; raises [Usage_error] if [No_resize]
   and [t] cannot hold it (paper §III-C). *)
let write_array (policy : Resize_policy.t) t (src : 'a array) =
  let n = Array.length src in
  match policy with
  | Resize_policy.Resize_to_fit ->
      t.data <- Array.copy src;
      t.len <- n
  | Resize_policy.Grow_only ->
      if Array.length t.data < n then t.data <- Array.copy src
      else Array.blit src 0 t.data 0 n;
      if t.len < n then t.len <- n
  | Resize_policy.No_resize ->
      if t.len < n then
        Mpisim.Errdefs.usage_error
          "output container too small under no_resize: need %d elements, have %d" n t.len;
      Array.blit src 0 t.data 0 n
