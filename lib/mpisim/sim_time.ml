(* Virtual time used by the simulator.

   Times are non-negative floats in seconds.  Virtual clocks only ever move
   forward; [advance] and [sync] enforce this so that a buggy cost model
   cannot silently run a rank backwards in time. *)

type t = float

let zero : t = 0.

let add (a : t) (b : t) : t = a +. b

let max (a : t) (b : t) : t = if a >= b then a else b

let compare (a : t) (b : t) = Float.compare a b

let ( + ) = add

let pp ppf (t : t) =
  if t < 1e-6 then Format.fprintf ppf "%.1fns" (t *. 1e9)
  else if t < 1e-3 then Format.fprintf ppf "%.2fus" (t *. 1e6)
  else if t < 1. then Format.fprintf ppf "%.3fms" (t *. 1e3)
  else Format.fprintf ppf "%.4fs" t

let to_string t = Format.asprintf "%a" pp t
