(** Per-(src, dst) message/byte counters with collective-algorithm
    attribution: every injected message bumps the cell for (source,
    destination, label), where the label is the name of the message's
    tag ({!Coll_algo.tag_name}): the collective algorithm or operation,
    or the internal protocol, that sent it, and ["p2p"] for a user tag.
    A lowered phase is labelled with the operation it runs.

    Created disabled; {!record} is a single branch (no allocation) in
    that state, so the send hot path is unaffected unless the matrix was
    explicitly requested. *)

type t

val p2p_label : string

val create : size:int -> t

val enable : t -> unit

val enabled : t -> bool

(** Count one injected message under its tag's name; no-op when
    disabled. *)
val record : t -> src:int -> dst:int -> tag:int -> bytes:int -> unit

type entry = { cm_src : int; cm_dst : int; cm_label : string; cm_msgs : int; cm_bytes : int }

(** All non-empty cells, sorted by (src, dst, label). *)
val entries : t -> entry list

(** (total messages, total bytes) across all cells. *)
val totals : t -> int * int

(** Aggregate per-label [comm.msgs.*] / [comm.bytes.*] totals into a
    stats registry. *)
val publish_stats : t -> Stats.t -> unit

(** CSV rendering: a [src,dst,algo,msgs,bytes] header plus one sorted row
    per cell. *)
val csv : t -> string

(** Write the matrix to [path]: JSON when it ends in [.json], else CSV. *)
val write_file : t -> string -> unit
