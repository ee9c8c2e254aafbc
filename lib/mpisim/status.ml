(* Receive status: who sent, with which tag, how many elements. *)

type t = { source : int; tag : int; count : int; bytes : int }

let source t = t.source

let tag t = t.tag

let count t = t.count

let bytes t = t.bytes

let make ~source ~tag ~count ~bytes = { source; tag; count; bytes }

let empty = { source = -1; tag = -1; count = 0; bytes = 0 }

let pp ppf t =
  Format.fprintf ppf "{src=%d; tag=%d; count=%d; bytes=%d}" t.source t.tag t.count
    t.bytes
