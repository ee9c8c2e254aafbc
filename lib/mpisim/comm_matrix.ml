(* Per-(src, dst) communication matrix with collective-algorithm
   attribution.

   Every injected message bumps one cell keyed by (source rank,
   destination rank, label), where the label is the name of the message's
   tag in Coll_algo's internal-tag table ("allreduce.rabenseifner",
   "alltoallv", "comm_split") or "p2p" for a user tag.  The tag says which
   protocol sent the message, so no run-time state names it: a lowered
   phase (the reduce half of allreduce's reduce+bcast lowering) is
   attributed to the operation that phase runs.

   Hot-path discipline matches Trace and Stats: the recorder is created
   disabled, and [record] is a single mutable-bool check in that state —
   no allocation, no hashing.  When enabled, the per-message cost is one
   hash lookup (the probe key tuple is short-lived minor garbage, which
   is acceptable for an explicitly requested diagnostic). *)

type cell = { mutable msgs : int; mutable bytes : int }

type t = {
  mutable enabled : bool;
  size : int;
  cells : (int * int * string, cell) Hashtbl.t;
}

let p2p_label = Coll_algo.p2p_name

let create ~size = { enabled = false; size; cells = Hashtbl.create 256 }

let enable t = t.enabled <- true

let enabled t = t.enabled

let record t ~src ~dst ~tag ~bytes =
  if t.enabled then begin
    let key = (src, dst, Coll_algo.tag_name tag) in
    match Hashtbl.find_opt t.cells key with
    | Some c ->
        c.msgs <- c.msgs + 1;
        c.bytes <- c.bytes + bytes
    | None -> Hashtbl.replace t.cells key { msgs = 1; bytes }
  end

type entry = { cm_src : int; cm_dst : int; cm_label : string; cm_msgs : int; cm_bytes : int }

(* Cells sorted by (src, dst, label): deterministic, diffable output. *)
let entries t =
  Hashtbl.fold
    (fun (src, dst, lbl) c acc ->
      { cm_src = src; cm_dst = dst; cm_label = lbl; cm_msgs = c.msgs; cm_bytes = c.bytes }
      :: acc)
    t.cells []
  |> List.sort (fun a b ->
         compare (a.cm_src, a.cm_dst, a.cm_label) (b.cm_src, b.cm_dst, b.cm_label))

let totals t =
  Hashtbl.fold (fun _ c (msgs, bytes) -> (msgs + c.msgs, bytes + c.bytes)) t.cells (0, 0)

(* Aggregate per-label totals into the stats registry, so --stats output
   and stats-based regression checks see the traffic breakdown without
   carrying the full O(p^2) matrix. *)
let publish_stats t stats =
  List.iter
    (fun e ->
      Stats.add (Stats.counter stats ("comm.msgs." ^ e.cm_label)) e.cm_msgs;
      Stats.add (Stats.counter stats ("comm.bytes." ^ e.cm_label)) e.cm_bytes)
    (entries t)

let csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "src,dst,algo,msgs,bytes\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%s,%d,%d\n" e.cm_src e.cm_dst e.cm_label e.cm_msgs
           e.cm_bytes))
    (entries t);
  Buffer.contents buf

let json_into buf t =
  let root = Json_out.start_obj buf in
  Json_out.field_int root "ranks" t.size;
  let msgs, bytes = totals t in
  Json_out.field_int root "total_msgs" msgs;
  Json_out.field_int root "total_bytes" bytes;
  Json_out.key root "cells";
  let arr = Json_out.start_arr buf in
  List.iter
    (fun e ->
      Json_out.sep arr;
      let o = Json_out.start_obj buf in
      Json_out.field_int o "src" e.cm_src;
      Json_out.field_int o "dst" e.cm_dst;
      Json_out.field_str o "algo" e.cm_label;
      Json_out.field_int o "msgs" e.cm_msgs;
      Json_out.field_int o "bytes" e.cm_bytes;
      Json_out.end_obj o)
    (entries t);
  Json_out.end_arr arr;
  Json_out.end_obj root

(* File export: JSON when the name ends in .json, CSV otherwise. *)
let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if Filename.check_suffix path ".json" then begin
        let buf = Buffer.create 4096 in
        json_into buf t;
        Buffer.output_buffer oc buf
      end
      else output_string oc (csv t))
