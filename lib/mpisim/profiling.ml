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
   registered; [prepare] resolves the pair ahead of time for paths that
   cannot afford even the lookup, and [record_slot] resolves it at the
   first call of an op with a fixed slot and keeps it there. *)

type handles = { calls_c : Stats.counter; bytes_c : Stats.counter }

type t = {
  stats : Stats.t;
  table : (string, handles) Hashtbl.t;
  slots : handles option array;  (* [None] until the slot's op is first recorded *)
  mutable enabled : bool;
}

let n_slots = 16

type summary = (string * int * int) list
(* (op, calls, bytes), sorted by op name *)

let create ?stats () =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  { stats; table = Hashtbl.create 32; slots = Array.make n_slots None; enabled = true }

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

(* Hot-path variant for persistent operations: the handle pair is resolved
   once at init ([prepare]) so a per-cycle [record_prepared] is two counter
   bumps — no hash lookup, no allocation. *)
type prepared = handles

let prepare t op : prepared = handles t op

let record_prepared t (h : prepared) ~bytes =
  if t.enabled then begin
    Stats.incr h.calls_c;
    Stats.add h.bytes_c bytes
  end

let record t ~op ~bytes =
  if t.enabled then begin
    let h = handles t op in
    Stats.incr h.calls_c;
    Stats.add h.bytes_c bytes
  end

(* [record ~op] for an op that always comes with the same [slot]: the
   lookup runs once per table, at the op's first call, so the op enters
   [snapshot] exactly when [record] would have entered it. *)
let record_slot t ~slot ~op ~bytes =
  if t.enabled then begin
    let h =
      match t.slots.(slot) with
      | Some h -> h
      | None ->
          let h = handles t op in
          t.slots.(slot) <- Some h;
          h
    in
    record_prepared t h ~bytes
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

let pp_summary ppf (s : summary) =
  List.iter (fun (op, c, b) -> Format.fprintf ppf "%-24s %8d calls %12d bytes@." op c b) s
