(* PMPI-style profiling: per-operation call and byte counters.

   The paper uses MPI's profiling interface to verify that the binding
   layer issues exactly the expected underlying MPI calls when it computes
   default parameters (§III-H); tests here do the same with
   [snapshot]/[diff].

   The table is a facade over a {!Stats.t} registry: each op owns a pair
   of [Stats] counters ([mpi.<op>.calls] / [mpi.<op>.bytes]), so the same
   numbers appear in the general metrics exports (text and JSON) without
   being recorded twice.  The handle pair is cached per op, so [record]
   is one string-keyed hash lookup that allocates nothing once the op is
   registered.  An [op] made once up front (the ops of every message in
   P2p and of every collective entry in Coll) owns a slot in every table:
   its handles are looked up at its first use in a table and kept there,
   so later records hash nothing. *)

type handles = { calls_c : Stats.counter; bytes_c : Stats.counter }

type t = {
  stats : Stats.t;
  table : (string, handles) Hashtbl.t;
  mutable slots : handles option array;  (* by [op.slot]; [None] until first used *)
  mutable enabled : bool;
}

type op = { name : string; slot : int }

(* The slots handed out so far; a table sizes its [slots] by it. *)
let n_ops = Atomic.make 0

let op name = { name; slot = Atomic.fetch_and_add n_ops 1 }

let op_name op = op.name

type summary = (string * int * int) list
(* (op, calls, bytes), sorted by op name *)

let create ?stats () =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  {
    stats;
    table = Hashtbl.create 32;
    slots = Array.make (Atomic.get n_ops) None;
    enabled = true;
  }

let register t op =
  let h =
    {
      calls_c = Stats.counter t.stats ("mpi." ^ op ^ ".calls");
      bytes_c = Stats.counter t.stats ("mpi." ^ op ^ ".bytes");
    }
  in
  Hashtbl.replace t.table op h;
  h

(* Looked up without a closure or an option. *)
let handles t op =
  match Hashtbl.find t.table op with h -> h | exception Not_found -> register t op

let record t ~op ~bytes =
  if t.enabled then begin
    let h = handles t op in
    Stats.incr h.calls_c;
    Stats.add h.bytes_c bytes
  end

(* The handles of an [op]: the lookup runs once per table, at the op's
   first use, so the op enters [snapshot] exactly when [record] would
   have entered it.  An op made after the table grows its slots. *)
let[@inline never] first_use t op =
  if op.slot >= Array.length t.slots then begin
    let slots = Array.make (Atomic.get n_ops) None in
    Array.blit t.slots 0 slots 0 (Array.length t.slots);
    t.slots <- slots
  end;
  let h = handles t op.name in
  t.slots.(op.slot) <- Some h;
  h

let[@inline] op_handles t op =
  if op.slot < Array.length t.slots then
    match Array.unsafe_get t.slots op.slot with Some h -> h | None -> first_use t op
  else first_use t op

(* Hot-path variant for persistent operations: the handle pair is resolved
   once at init ([prepare_op]) so a per-cycle [record_prepared] is two
   counter bumps — no hash lookup, no allocation. *)
type prepared = handles

let prepare_op t op : prepared = op_handles t op

let record_prepared t (h : prepared) ~bytes =
  if t.enabled then begin
    Stats.incr h.calls_c;
    Stats.add h.bytes_c bytes
  end

let record_op t op ~bytes =
  if t.enabled then begin
    let h = op_handles t op in
    Stats.incr h.calls_c;
    Stats.add h.bytes_c bytes
  end

let set_enabled t b = t.enabled <- b

let snapshot t : summary =
  Hashtbl.fold
    (fun op h acc -> (op, Stats.count h.calls_c, Stats.count h.bytes_c) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let calls t ~op =
  match Hashtbl.find_opt t.table op with None -> 0 | Some h -> Stats.count h.calls_c

let bytes t ~op =
  match Hashtbl.find_opt t.table op with None -> 0 | Some h -> Stats.count h.bytes_c

let total_calls t =
  Hashtbl.fold (fun _ h acc -> acc + Stats.count h.calls_c) t.table 0

(* [diff ~before ~after] lists ops whose call or byte count changed, with
   deltas.  The diff is symmetric: an op present only in [before] (e.g.
   hidden by a reset or rename) shows up with negative deltas rather than
   being silently dropped. *)
let diff ~(before : summary) ~(after : summary) : summary =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (op, c, b) -> Hashtbl.replace tbl op (c, b)) before;
  let forward =
    List.filter_map
      (fun (op, c, b) ->
        let c0, b0 = match Hashtbl.find_opt tbl op with Some x -> x | None -> (0, 0) in
        Hashtbl.remove tbl op;
        if c - c0 = 0 && b - b0 = 0 then None else Some (op, c - c0, b - b0))
      after
  in
  (* Whatever is left in [tbl] existed only in [before]. *)
  let vanished =
    Hashtbl.fold
      (fun op (c, b) acc -> if c = 0 && b = 0 then acc else (op, -c, -b) :: acc)
      tbl []
  in
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) (forward @ vanished)
