(* Reduction operations.

   Built-in operations carry a [builtin] tag so that implementations can
   recognize them (the paper highlights that mapping STL functors like
   std::plus to MPI's built-in constants "may enable optimization by the MPI
   implementation"); [custom] wraps an arbitrary closure, the analogue of
   reduction-via-lambda.

   [commutative] matters for reduction-tree shape: non-commutative ops force
   rank-ordered combining. *)

type builtin = Sum | Prod | Min | Max | Land | Lor | Lxor | Band | Bor | Bxor

type 'a t = {
  name : string;
  f : 'a -> 'a -> 'a;
  commutative : bool;
  builtin : builtin option;
}

let custom ?(commutative = true) ~name f = { name; f; commutative; builtin = None }

let make_builtin name b f = { name; f; commutative = true; builtin = Some b }

let int_sum = make_builtin "int_sum" Sum ( + )

let int_prod = make_builtin "int_prod" Prod ( * )

let int_min = make_builtin "int_min" Min Int.min

let int_max = make_builtin "int_max" Max Int.max

let int_band = make_builtin "int_band" Band ( land )

let int_bor = make_builtin "int_bor" Bor ( lor )

let int_bxor = make_builtin "int_bxor" Bxor ( lxor )

let float_sum = make_builtin "float_sum" Sum ( +. )

let float_prod = make_builtin "float_prod" Prod ( *. )

let float_min = make_builtin "float_min" Min Float.min

let float_max = make_builtin "float_max" Max Float.max

let bool_and = make_builtin "bool_and" Land ( && )

let bool_or = make_builtin "bool_or" Lor ( || )

let bool_xor = make_builtin "bool_xor" Lxor (fun a b -> a <> b)

let apply t a b = t.f a b
