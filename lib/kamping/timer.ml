(* Distributed measurement timer (the measurements facility of the
   reference library; supports the paper's algorithm-engineering workflow
   of §III-C: iterative refinement and analysis through experimentation).

   Each rank accumulates named durations on the runtime's virtual clock
   ([start]/[stop] may nest and repeat); [aggregate] is a collective that
   reduces every key across ranks to (min, mean, max) — the numbers a
   scaling study reports. *)

open Mpisim

type entry = { mutable total : float; mutable count : int; mutable started_at : float option }

type t = { comm : Communicator.t; entries : (string, entry) Hashtbl.t; mutable order : string list }

let create (comm : Communicator.t) : t =
  { comm; entries = Hashtbl.create 16; order = [] }

let entry t key =
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e = { total = 0.; count = 0; started_at = None } in
      Hashtbl.replace t.entries key e;
      t.order <- key :: t.order;
      e

let now t =
  let mpi = Communicator.mpi t.comm in
  Runtime.clock (Comm.runtime mpi) (Comm.world_rank mpi)

(* Begin timing [key] on this rank.  Raises on double start.  Timer keys
   double as trace spans (cat "timer"), so measured phases line up with
   the operations they cover in the Chrome trace view. *)
let start t key =
  let e = entry t key in
  match e.started_at with
  | Some _ -> Errdefs.usage_error "Timer.start: %S already running" key
  | None ->
      e.started_at <- Some (now t);
      let mpi = Communicator.mpi t.comm in
      Trace.span_begin (Comm.runtime mpi).Runtime.trace ~rank:(Comm.world_rank mpi)
        ~cat:"timer" ~name:key

(* Stop timing [key]; accumulates the elapsed virtual time. *)
let stop t key =
  let e = entry t key in
  match e.started_at with
  | None -> Errdefs.usage_error "Timer.stop: %S is not running" key
  | Some t0 ->
      e.started_at <- None;
      e.total <- e.total +. (now t -. t0);
      e.count <- e.count + 1;
      let mpi = Communicator.mpi t.comm in
      Trace.span_end (Comm.runtime mpi).Runtime.trace ~rank:(Comm.world_rank mpi)
        ~cat:"timer" ~name:key

(* Time a closure under [key]. *)
let time t key f =
  start t key;
  Fun.protect ~finally:(fun () -> stop t key) f

(* Local view: (key, total seconds, start/stop count), in first-use
   order. *)
let local t : (string * float * int) list =
  List.rev_map
    (fun key ->
      let e = Hashtbl.find t.entries key in
      (key, e.total, e.count))
    t.order

type aggregate = { key : string; min : float; mean : float; max : float; count : int }

(* Componentwise (min, sum, max) on per-key triples: commutative and
   associative, so a tree reduction is valid. *)
let min_sum_max =
  Reduce_op.custom ~commutative:true ~name:"min_sum_max"
    (fun (m1, s1, x1) (m2, s2, x2) -> (Float.min m1 m2, s1 +. s2, Float.max x1 x2))

(* Collective: reduce every key across ranks.  All ranks must have used
   the same keys in the same order.

   One allreduce total: each rank contributes a (total, total, total)
   triple per key and the custom op folds them to (min, sum, max)
   componentwise — not three allreduces per key, which dominated
   aggregation cost for fine-grained timers. *)
let aggregate (t : t) : aggregate list =
  let keys = List.rev t.order in
  if keys = [] then []
  else begin
    let entries =
      List.map
        (fun key ->
          let e = Hashtbl.find t.entries key in
          if e.started_at <> None then
            Errdefs.usage_error "Timer.aggregate: %S still running" key;
          (key, e))
        keys
    in
    let send =
      Array.of_list (List.map (fun (_, e) -> (e.total, e.total, e.total)) entries)
    in
    let reduced =
      Datatype.with_committed
        (Datatype.triple Datatype.float Datatype.float Datatype.float)
        (fun dt3 -> Collectives.allreduce t.comm dt3 min_sum_max send)
    in
    let size = float_of_int (Communicator.size t.comm) in
    let aggs =
      List.mapi
        (fun i ((key, e) : string * entry) ->
          let mn, sum, mx = reduced.(i) in
          { key; min = mn; mean = sum /. size; max = mx; count = e.count })
        entries
    in
    (* Publish the aggregates as timer.<key>.{min,mean,max}_seconds gauges:
       they land in the sorted --stats dump and become bench-diff-able
       metrics (the _seconds suffix marks them lower-is-better).  Every
       rank computes identical values, so the repeated sets are benign. *)
    let stats = (Comm.runtime (Communicator.mpi t.comm)).Runtime.stats in
    List.iter
      (fun a ->
        Stats.set (Stats.gauge stats ("timer." ^ a.key ^ ".min_seconds")) a.min;
        Stats.set (Stats.gauge stats ("timer." ^ a.key ^ ".mean_seconds")) a.mean;
        Stats.set (Stats.gauge stats ("timer." ^ a.key ^ ".max_seconds")) a.max)
      aggs;
    aggs
  end
