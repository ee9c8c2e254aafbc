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
   registered.  The ops of every message in P2p and of every collective
   entry in Coll are listed once, in [op_names]; an [op] is its index
   there and owns that slot in every table: its two counters are looked
   up at its first use in a table and kept in the table's [calls] and
   [bytes] arrays, so a later record is two array reads and two bumps,
   and hashes nothing. *)

type handles = { calls_c : Stats.counter; bytes_c : Stats.counter }

type t = {
  stats : Stats.t;
  table : (string, handles) Hashtbl.t;
  (* By op: the op's counters, or [unused] until its first use. *)
  calls : Stats.counter array;
  bytes : Stats.counter array;
  unused : Stats.counter;
}

(* The name of each op, listed by slot; never written. *)
let op_names =
  [|
    "send"; "ssend"; "isend"; "issend"; "recv"; "irecv"; "probe"; "iprobe"; "barrier";
    "ibarrier"; "bcast"; "gather"; "gatherv"; "scatter"; "scatterv"; "allgather"; "allgatherv";
    "alltoall"; "alltoallv"; "alltoallw"; "reduce"; "allreduce"; "scan"; "exscan";
    "neighbor_allgather"; "neighbor_alltoallv"; "reduce_scatter_block"; "reduce_scatter";
    "allreduce_init"; "bcast_init"; "reduce_scatter_init"; "ibcast"; "iallreduce";
    "ialltoallv"; "ireduce_scatter";
  |]

type op = int

let op name =
  let rec find i =
    if i = Array.length op_names then invalid_arg ("Profiling.op: unlisted op " ^ name)
    else if op_names.(i) = name then i
    else find (i + 1)
  in
  find 0

let op_name op = op_names.(op)

let ops = List.init (Array.length op_names) Fun.id

type summary = (string * int * int) list
(* (op, calls, bytes), sorted by op name *)

let create ?stats () =
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let unused = Stats.unregistered_counter () in
  {
    stats;
    table = Hashtbl.create 32;
    calls = Array.make (Array.length op_names) unused;
    bytes = Array.make (Array.length op_names) unused;
    unused;
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
  let h = handles t op in
  Stats.incr h.calls_c;
  Stats.add h.bytes_c bytes

(* The counters of an [op] enter its slots: the lookup runs once per
   table, at the op's first use, so the op enters [snapshot] exactly when
   [record] would have entered it. *)
let[@inline never] first_use t op =
  let h = handles t (op_name op) in
  t.calls.(op) <- h.calls_c;
  t.bytes.(op) <- h.bytes_c

let record_op t op ~bytes =
  if Array.unsafe_get t.calls op == t.unused then first_use t op;
  Stats.incr (Array.unsafe_get t.calls op);
  Stats.add (Array.unsafe_get t.bytes op) bytes

let enter_op t op = if t.calls.(op) == t.unused then first_use t op

let snapshot t : summary =
  Hashtbl.fold
    (fun op h acc -> (op, Stats.count h.calls_c, Stats.count h.bytes_c) :: acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let calls t ~op =
  match Hashtbl.find_opt t.table op with None -> 0 | Some h -> Stats.count h.calls_c

let bytes t ~op =
  match Hashtbl.find_opt t.table op with None -> 0 | Some h -> Stats.count h.bytes_c

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
