(* Datatype signatures.

   MPI requires the type signatures of matching send and receive operations
   to agree.  C's lack of introspection makes violations a classic source of
   silent corruption; the simulator checks signatures on every match (when
   assertions are enabled) and raises a type-matching error on disagreement,
   mirroring the compile-time guarantees the paper provides (§III-D).

   A signature is a run-length-encoded sequence of base kinds.  Opaque
   byte-blob types (trivially-copyable structs sent as contiguous bytes)
   use [Blob], which matches any byte count of [Blob]: this mirrors
   MPI_BYTE's matching rules.  [Byte_string] is one length-framed byte
   string, at least its 8-byte length on the wire. *)

type base = Int64 | Int32 | Float64 | Float32 | Char | Bool | Blob | Byte_string

type t = (base * int) list
(* Invariant: counts are positive and adjacent bases differ. *)

let base_size = function
  | Int64 -> 8
  | Int32 -> 4
  | Float64 -> 8
  | Float32 -> 4
  | Char -> 1
  | Bool -> 1
  | Blob -> 1
  | Byte_string -> 8

let base_name = function
  | Int64 -> "int64"
  | Int32 -> "int32"
  | Float64 -> "float64"
  | Float32 -> "float32"
  | Char -> "char"
  | Bool -> "bool"
  | Blob -> "blob"
  | Byte_string -> "bytes"

let empty : t = []

let of_base ?(count = 1) b : t = if count = 0 then [] else [ (b, count) ]

(* Normalizing append: merges adjacent equal bases. *)
let append (a : t) (b : t) : t =
  match (List.rev a, b) with
  | [], _ -> b
  | _, [] -> a
  | (ba, ca) :: rest_a, (bb, cb) :: rest_b when ba = bb ->
      List.rev_append rest_a ((ba, ca + cb) :: rest_b)
  | _, _ -> a @ b

let concat (xs : t list) : t = List.fold_left append empty xs

let repeat (s : t) n : t =
  if n < 0 then invalid_arg "Signature.repeat";
  let rec go acc k = if k = 0 then acc else go (append acc s) (k - 1) in
  match s with
  | [ (b, c) ] -> of_base ~count:(c * n) b
  | _ -> go empty n

let size_in_bytes (s : t) =
  List.fold_left (fun acc (b, c) -> acc + (base_size b * c)) 0 s

(* Two signatures match when their base-kind expansions are equal, except
   that Blob runs match Blob runs with equal *byte* counts regardless of
   segmentation (both sides count bytes). *)
let matches (a : t) (b : t) = a = b

(* [matches (repeat a n) (repeat b n)] for element signatures [a] and [b]:
   equal elements repeat equally, so the repetitions are only built when
   the elements differ.  The matching case allocates nothing. *)
let repeats_match (a : t) (b : t) n = a == b || matches a b || matches (repeat a n) (repeat b n)

(* Receive-side compatibility: a receive of signature [recv] repeated enough
   times may be longer than the incoming data in MPI; we instead require the
   exact per-message equality because the runtime transfers whole messages.
   Truncation (recv buffer shorter than message) is detected separately via
   counts. *)

let pp ppf (s : t) =
  let pp_item ppf (b, c) =
    if c = 1 then Format.fprintf ppf "%s" (base_name b)
    else Format.fprintf ppf "%s[%d]" (base_name b) c
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_item)
    s

let to_string s = Format.asprintf "%a" pp s
