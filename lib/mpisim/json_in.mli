(** Minimal JSON parser: the read-side counterpart of {!Json_out}, used
    by the bench-diff regression gate to consume the harness's JSON
    Lines output without an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Parse one complete JSON value; trailing non-whitespace is an error. *)
val parse : string -> (t, string) result

(** Parse JSON Lines: one value per non-blank line. *)
val parse_lines : string -> (t list, string) result

(** Field lookup on an [Obj]; [None] on other constructors. *)
val member : string -> t -> t option

val to_float : t -> float option
