(* Elastic fault-tolerant task queue (ROADMAP: the TUT-HPCLIB4D
   `scheduler.run!task(range)` pattern as a KaMPIng-style plugin).

   Farms a batch of heterogeneous serialized tasks over the ranks of a
   communicator and returns the full result vector on every surviving
   rank, with an exactly-once guarantee on the *recorded* results: a task
   function may run more than once (straggler re-dispatch, rank death),
   but exactly one execution's result reaches the final vector, and every
   surplus arrival is counted in taskqueue.duplicates_suppressed.

   Two scheduling modes:

   - [Master_worker]: pull-based.  Comm rank 0 owns the authoritative
     pending/leased/done sets; workers request work, execute, and report
     results.  Leases carry virtual-time deadlines: a straggler's lease
     expires and the task is re-dispatched with exponential backoff; the
     late original result is suppressed by the duplicate table.  A
     token-bucket rate limiter and a bounded in-flight window throttle
     dispatch under overload.
   - [Nbx]: decentralized bulk-synchronous work "stealing".  Tasks start
     id-mod-p partitioned; each round every rank executes up to [batch]
     local tasks, the ranks allgather queue loads and dependency
     completions, compute one deterministic rebalancing plan, and move
     task ids through the sparse (NBX) all-to-all plugin.

   Fault tolerance (both modes) is one [Ulfm.run_with_recovery] attempt
   around a resync + drain + replicate + agree sequence:

   - every rank keeps a local knowledge table of (task, origin, nonce) ->
     result for every execution it performed, every result it recorded,
     and every checkpoint entry replicated to it;
   - an attempt starts with a resync collective (gather knowledge at the
     root, i.e. the elected master = comm rank 0 of the current,
     possibly shrunken, communicator) that rebuilds the done set, so a
     re-elected master resumes without re-running any task whose result
     survives on any living rank;
   - the master additionally replicates the entries recorded since the
     last checkpoint to its successor every [checkpoint_every]
     completions, covering the double-fault schedule where a worker dies
     after reporting and the master dies before anyone else learns the
     result;
   - the run commits through [Ulfm.agree]: every rank returns only after
     all survivors agree the result vector is complete and the
     communicator intact, so no rank can leave while others still need it
     for recovery collectives.

   A killed worker is detected by the master's failed-member poll (or by
   a failed send/receive), the communicator is revoked so parked peers
   wake, survivors shrink, and in-flight leases of dead workers are
   requeued on the shrunken communicator.  A killed master is the same
   path seen from the workers: their blocked receives raise
   ERR_PROC_FAILED, recovery shrinks, and the new comm rank 0 takes over
   from the gathered knowledge. *)

open Mpisim
module C = Kamping.Communicator

type mode = Master_worker | Nbx

let mode_to_string = function Master_worker -> "master" | Nbx -> "nbx"

let mode_of_string = function
  | "master" | "master_worker" -> Ok Master_worker
  | "nbx" -> Ok Nbx
  | s -> Error (Printf.sprintf "unknown taskqueue mode %S (want master or nbx)" s)

type config = {
  mode : mode;
  lease_timeout : float;
  max_in_flight : int;
  rate : float;
  burst : int;
  checkpoint_every : int;
  batch : int;
  max_recovery_retries : int;
}

(* A re-dispatched task's lease doubles per attempt. *)
let lease_backoff = 2.0

let config ?(mode = Master_worker) ?(lease_timeout = 1e-3)
    ?(max_in_flight = max_int) ?(rate = infinity) ?(burst = 64) ?(checkpoint_every = 16)
    ?(batch = 4) ?(max_recovery_retries = 8) () =
  if lease_timeout <= 0. then Errdefs.usage_error "taskqueue: lease_timeout must be > 0";
  if max_in_flight < 1 then Errdefs.usage_error "taskqueue: max_in_flight must be >= 1";
  if burst < 1 then Errdefs.usage_error "taskqueue: burst must be >= 1";
  if checkpoint_every < 1 then
    Errdefs.usage_error "taskqueue: checkpoint_every must be >= 1";
  if batch < 1 then Errdefs.usage_error "taskqueue: batch must be >= 1";
  {
    mode;
    lease_timeout;
    max_in_flight;
    rate;
    burst;
    checkpoint_every;
    batch;
    max_recovery_retries;
  }

(* Protocol tags (user tag space, clear of sparse_alltoall's 4242). *)
let t_request = 4310 (* worker -> master: give me work *)

let t_assign = 4311 (* master -> worker: Task (id, payload) | Stop *)

let t_result = 4312 (* worker -> master: (id, origin, nonce, result) *)

let t_ckpt = 4313 (* master -> successor: checkpoint entry replication *)

(* An execution is keyed by (task id, executing world rank, per-rank
   execution nonce): replication copies of one execution share the key,
   so merging them is not a duplicate; two *executions* of one task have
   different keys, and the second one to reach an authoritative store is
   what taskqueue.duplicates_suppressed counts. *)
type key = { k_task : int; k_origin : int; k_nonce : int }

let key_codec =
  Serial.Codec.map ~name:"taskqueue.key"
    ~inject:(fun (k_task, k_origin, k_nonce) -> { k_task; k_origin; k_nonce })
    ~project:(fun { k_task; k_origin; k_nonce } -> (k_task, k_origin, k_nonce))
    Serial.Codec.(triple varint varint varint)

(* Per-run counters, resolved once from the Stats registry. *)
type counters = {
  c_dispatched : Stats.counter;
  c_completed : Stats.counter;
  c_redispatched : Stats.counter;
  c_duplicates : Stats.counter;
  c_leases_expired : Stats.counter;
  c_throttled : Stats.counter;
  c_checkpoints : Stats.counter;
  c_steals : Stats.counter;
}

let counters stats =
  {
    c_dispatched = Stats.counter stats "taskqueue.dispatched";
    c_completed = Stats.counter stats "taskqueue.completed";
    c_redispatched = Stats.counter stats "taskqueue.redispatched";
    c_duplicates = Stats.counter stats "taskqueue.duplicates_suppressed";
    c_leases_expired = Stats.counter stats "taskqueue.leases_expired";
    c_throttled = Stats.counter stats "taskqueue.throttled";
    c_checkpoints = Stats.counter stats "taskqueue.checkpoints";
    c_steals = Stats.counter stats "taskqueue.steals";
  }

(* Shared per-run state that survives recovery attempts: the local
   knowledge table and the execution nonce.  Leases and queues are
   per-attempt (rebuilt by resync). *)
type 'b state = {
  cfg : config;
  n_tasks : int;
  deps : int list array;
  knowledge : (key, 'b) Hashtbl.t;  (* everything this rank knows for sure *)
  mutable nonce : int;  (* executions performed by this rank, ever *)
  ctr : counters;
}

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let trace_flow rt ~rank ~name ~a ~b ~c =
  Trace.instant_d rt.Runtime.trace ~rank ~cat:"taskqueue" ~name ~a ~b ~c
    ~d:(Runtime.lamport_clock rt rank)

(* Execute one task on this rank: chaos task trigger, span, log the
   result into local knowledge under a fresh execution key. *)
let execute state rt ~me_world ~exec ~tasks id =
  Runtime.task_tick rt me_world;
  trace_flow rt ~rank:me_world ~name:"exec" ~a:id ~b:state.nonce ~c:(-1);
  let result =
    Runtime.with_span rt me_world ~cat:"taskqueue" ~name:"task" (fun () ->
        exec id tasks.(id))
  in
  let k = { k_task = id; k_origin = me_world; k_nonce = state.nonce } in
  state.nonce <- state.nonce + 1;
  Hashtbl.replace state.knowledge k result;
  Stats.incr state.ctr.c_completed;
  (k, result)

(* Merge an entry into a table, counting a suppressed duplicate when a
   *different execution* of the same task is already present (a
   same-key merge is checkpoint/resync replication, not a re-run). *)
let merge_entry state table (k : key) result =
  let dup_execution =
    Hashtbl.fold
      (fun (k' : key) _ acc -> acc || (k'.k_task = k.k_task && k' <> k))
      table false
  in
  if dup_execution then Stats.incr state.ctr.c_duplicates
  else if not (Hashtbl.mem table k) then Hashtbl.replace table k result

let done_set table n =
  let d = Array.make n false in
  Hashtbl.iter (fun k _ -> if k.k_task < n then d.(k.k_task) <- true) table;
  d

let count_done d = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 d

(* Token bucket over virtual time.  When the bucket is empty the caller
   *waits* (charges virtual compute) until the next token accrues — the
   simulator's equivalent of sleeping on the limiter. *)
type bucket = { mutable tokens : float; mutable last : float }

let take_token state rt me_world bucket =
  if state.cfg.rate = infinity then ()
  else begin
    let refill () =
      let now = Runtime.clock rt me_world in
      let dt = now -. bucket.last in
      bucket.last <- now;
      bucket.tokens <-
        Float.min (float_of_int state.cfg.burst) (bucket.tokens +. (dt *. state.cfg.rate))
    in
    refill ();
    if bucket.tokens < 1. then begin
      Stats.incr state.ctr.c_throttled;
      Runtime.charge_compute rt me_world ((1. -. bucket.tokens) /. state.cfg.rate);
      refill ()
    end;
    bucket.tokens <- bucket.tokens -. 1.
  end

(* Drain checkpoint-replication messages into local knowledge. *)
let drain_ckpts state entry_codec mpi =
  let rec go () =
    match P2p.iprobe mpi ~tag:t_ckpt () with
    | None -> ()
    | Some st ->
        let b, _ = P2p.recv_bytes mpi ~source:(Status.source st) ~tag:t_ckpt () in
        let entries = Serial.Archive.decode entry_codec b in
        List.iter (fun (k, r) -> merge_entry state state.knowledge k r) entries;
        go ()
  in
  go ()

(* Raise out of the protocol loop as soon as any member of the
   communicator has died: the ULFM wrapper revokes, shrinks and re-enters
   the attempt on the survivors. *)
let check_members mpi =
  if Comm.any_member_failed mpi then
    raise (Ulfm.Failure_detected "taskqueue: communicator member failed")

(* ------------------------------------------------------------------ *)
(* Master/worker mode *)

type lease = { mutable l_worker : int; mutable l_deadline : float; mutable l_attempt : int }

let master_loop state entry_codec assign_codec result_codec comm (tasks : 'a array) exec =
  let mpi = C.mpi comm in
  let rt = C.runtime comm in
  let me_world = Comm.world_rank mpi in
  let n = state.n_tasks in
  let size = C.size comm in
  (* Authoritative store, rebuilt from gathered knowledge by the caller
     into [state.knowledge]; here we promote it to the master's store. *)
  let store : (key, 'b) Hashtbl.t = Hashtbl.copy state.knowledge in
  let d = done_set store n in
  let n_done = ref (count_done d) in
  (* Dependency-aware pending: ready tasks are dispatchable, blocked ones
     wait for their dependencies to be recorded. *)
  let ready = Queue.create () in
  let blocked = ref [] in
  let is_ready id = List.for_all (fun dep -> d.(dep)) state.deps.(id) in
  for id = 0 to n - 1 do
    if not d.(id) then
      if is_ready id then Queue.add (id, 0) ready else blocked := id :: !blocked
  done;
  blocked := List.rev !blocked;
  let promote () =
    let now_ready, still = List.partition is_ready !blocked in
    blocked := still;
    List.iter (fun id -> Queue.add (id, 0) ready) now_ready
  in
  let leased : (int, lease) Hashtbl.t = Hashtbl.create 64 in
  let waiting : int Queue.t = Queue.create () in
  let bucket = { tokens = float_of_int state.cfg.burst; last = Runtime.clock rt me_world } in
  let since_ckpt = ref [] in
  let record_result (k : key) result =
    if d.(k.k_task) then Stats.incr state.ctr.c_duplicates
    else begin
      Hashtbl.replace store k result;
      Hashtbl.replace state.knowledge k result;
      d.(k.k_task) <- true;
      incr n_done;
      Hashtbl.remove leased k.k_task;
      since_ckpt := (k, result) :: !since_ckpt;
      promote ();
      trace_flow rt ~rank:me_world ~name:"record" ~a:k.k_task ~b:k.k_origin ~c:k.k_nonce;
      (* Checkpoint: replicate the entries recorded since the last
         snapshot to the successor rank, so a master death does not lose
         results whose origin worker has also died. *)
      if size > 1 && List.length !since_ckpt >= state.cfg.checkpoint_every then begin
        Stats.incr state.ctr.c_checkpoints;
        P2p.send_bytes mpi ~dest:1 ~tag:t_ckpt
          (Serial.Archive.encode entry_codec !since_ckpt);
        since_ckpt := []
      end
    end
  in
  let assign worker (id, attempt) =
    take_token state rt me_world bucket;
    let now = Runtime.clock rt me_world in
    let timeout = state.cfg.lease_timeout *. (lease_backoff ** float_of_int attempt) in
    Hashtbl.replace leased id
      { l_worker = worker; l_deadline = now +. timeout; l_attempt = attempt };
    Stats.incr state.ctr.c_dispatched;
    if attempt > 0 then Stats.incr state.ctr.c_redispatched;
    trace_flow rt ~rank:me_world ~name:"dispatch" ~a:id ~b:worker ~c:attempt;
    P2p.send_bytes mpi ~dest:worker ~tag:t_assign
      (Serial.Archive.encode assign_codec (id, Some tasks.(id)))
  in
  (* Main pump.  Single-rank communicators (everyone else died, or p=1)
     short-circuit to local execution. *)
  while !n_done < n do
    check_members mpi;
    let progressed = ref false in
    (* Results first: they free leases and unblock dependents. *)
    (match P2p.iprobe mpi ~tag:t_result () with
    | Some st ->
        progressed := true;
        let b, _ = P2p.recv_bytes mpi ~source:(Status.source st) ~tag:t_result () in
        let k, result = Serial.Archive.decode result_codec b in
        record_result k result
    | None -> ());
    (match P2p.iprobe mpi ~tag:t_request () with
    | Some st ->
        progressed := true;
        let _, st = P2p.recv_bytes mpi ~source:(Status.source st) ~tag:t_request () in
        Queue.add (Status.source st) waiting
    | None -> ());
    (* Lease expiry: stragglers go back on the ready queue with a longer
       (backed-off) lease for the next dispatch. *)
    let now = Runtime.clock rt me_world in
    let expired =
      Hashtbl.fold (fun id l acc -> if l.l_deadline <= now then (id, l) :: acc else acc)
        leased []
    in
    List.iter
      (fun (id, (l : lease)) ->
        progressed := true;
        Hashtbl.remove leased id;
        Stats.incr state.ctr.c_leases_expired;
        trace_flow rt ~rank:me_world ~name:"lease_expired" ~a:id ~b:l.l_worker
          ~c:l.l_attempt;
        Queue.add (id, l.l_attempt + 1) ready)
      (List.sort (fun (a, _) (b, _) -> compare a b) expired);
    (* Assignments, inside the in-flight window. *)
    if size > 1 then begin
      while
        (not (Queue.is_empty waiting))
        && (not (Queue.is_empty ready))
        && Hashtbl.length leased < state.cfg.max_in_flight
      do
        progressed := true;
        assign (Queue.pop waiting) (Queue.pop ready)
      done
    end
    else begin
      (* Alone: drain the ready queue locally. *)
      while not (Queue.is_empty ready) do
        progressed := true;
        let id, attempt = Queue.pop ready in
        take_token state rt me_world bucket;
        Stats.incr state.ctr.c_dispatched;
        if attempt > 0 then Stats.incr state.ctr.c_redispatched;
        let k, r = execute state rt ~me_world ~exec ~tasks id in
        record_result k r
      done
    end;
    if !n_done < n && not !progressed then Scheduler.yield ()
  done;
  (* Drain: every live worker's next request is answered with Stop.  Late
     duplicate results keep being recorded (and suppressed) here.  Workers
     whose request was already consumed into [waiting] are answered
     first — they are parked in a receive and will send nothing more. *)
  let stopped = Array.make size false in
  stopped.(0) <- true;
  Queue.iter
    (fun w ->
      stopped.(w) <- true;
      P2p.send_bytes mpi ~dest:w ~tag:t_assign
        (Serial.Archive.encode assign_codec (-1, None)))
    waiting;
  Queue.clear waiting;
  let all_stopped () =
    let all = ref true in
    let failed = Comm.failed_members mpi in
    for r = 1 to size - 1 do
      if (not stopped.(r)) && not (List.mem r failed) then all := false
    done;
    !all
  in
  while not (all_stopped ()) do
    check_members mpi;
    let progressed = ref false in
    (match P2p.iprobe mpi ~tag:t_request () with
    | Some st ->
        progressed := true;
        let _, st = P2p.recv_bytes mpi ~source:(Status.source st) ~tag:t_request () in
        let w = Status.source st in
        stopped.(w) <- true;
        P2p.send_bytes mpi ~dest:w ~tag:t_assign
          (Serial.Archive.encode assign_codec (-1, None))
    | None -> ());
    (match P2p.iprobe mpi ~tag:t_result () with
    | Some st ->
        progressed := true;
        let b, _ = P2p.recv_bytes mpi ~source:(Status.source st) ~tag:t_result () in
        let k, result = Serial.Archive.decode result_codec b in
        record_result k result
    | None -> ());
    if not !progressed then Scheduler.yield ()
  done;
  store

let worker_loop state entry_codec assign_codec result_codec comm (tasks : 'a array) exec =
  let mpi = C.mpi comm in
  let rt = C.runtime comm in
  let me_world = Comm.world_rank mpi in
  let master = 0 in
  let continue_ = ref true in
  while !continue_ do
    drain_ckpts state entry_codec mpi;
    P2p.send_bytes mpi ~dest:master ~tag:t_request Bytes.empty;
    let b, _ = P2p.recv_bytes mpi ~source:master ~tag:t_assign () in
    match Serial.Archive.decode assign_codec b with
    | id, Some payload ->
        tasks.(id) <- payload;
        let k, result = execute state rt ~me_world ~exec ~tasks id in
        P2p.send_bytes mpi ~dest:master ~tag:t_result
          (Serial.Archive.encode result_codec (k, result))
    | _, None -> continue_ := false
  done;
  drain_ckpts state entry_codec mpi

(* ------------------------------------------------------------------ *)
(* NBX mode: bulk-synchronous decentralized rebalancing *)

(* One deterministic rebalancing plan, computed identically on every rank
   from the shared load vector: ranks above their quota ship the surplus
   to ranks below it, matched greedily in rank order. *)
let rebalance_plan (loads : int array) : (int * int * int) list =
  let p = Array.length loads in
  let total = Array.fold_left ( + ) 0 loads in
  let quota i = (total / p) + if i < total mod p then 1 else 0 in
  let surplus = ref []
  and deficit = ref [] in
  for i = p - 1 downto 0 do
    let delta = loads.(i) - quota i in
    if delta > 0 then surplus := (i, ref delta) :: !surplus
    else if delta < 0 then deficit := (i, ref (-delta)) :: !deficit
  done;
  let plan = ref [] in
  let rec go surplus deficit =
    match (surplus, deficit) with
    | [], _ | _, [] -> ()
    | (s, sc) :: stl, (d, dc) :: dtl ->
        let k = min !sc !dc in
        if k > 0 then plan := (s, d, k) :: !plan;
        sc := !sc - k;
        dc := !dc - k;
        go (if !sc = 0 then stl else surplus) (if !dc = 0 then dtl else deficit)
  in
  go !surplus !deficit;
  List.rev !plan

let nbx_loop state comm (tasks : 'a array) exec =
  let mpi = C.mpi comm in
  let rt = C.runtime comm in
  let me_world = Comm.world_rank mpi in
  let me = C.rank comm in
  let p = C.size comm in
  let n = state.n_tasks in
  (* Global done-knowledge at round boundaries: starts from the resynced
     local knowledge (identical on all ranks after the resync bcast). *)
  let d = done_set state.knowledge n in
  let my_queue : int Queue.t = Queue.create () in
  let idx = ref 0 in
  for id = 0 to n - 1 do
    if not d.(id) then begin
      if !idx mod p = me then Queue.add id my_queue;
      incr idx
    end
  done;
  let bucket = { tokens = float_of_int state.cfg.burst; last = Runtime.clock rt me_world } in
  let remaining = ref (!idx) in
  while !remaining > 0 do
    check_members mpi;
    (* Execute up to [batch] ready tasks; blocked ones rotate to the back
       until their dependencies are globally done. *)
    let newly_done = ref [] in
    let executed = ref 0 in
    let scanned = ref 0 in
    let qlen = Queue.length my_queue in
    while !executed < state.cfg.batch && !scanned < qlen && not (Queue.is_empty my_queue) do
      incr scanned;
      let id = Queue.pop my_queue in
      if List.for_all (fun dep -> d.(dep)) state.deps.(id) then begin
        take_token state rt me_world bucket;
        Stats.incr state.ctr.c_dispatched;
        incr executed;
        let _k, _r = execute state rt ~me_world ~exec ~tasks id in
        newly_done := id :: !newly_done
      end
      else Queue.add id my_queue
    done;
    (* Round exchange 1: everyone learns which tasks completed this
       round, so dependents anywhere become ready. *)
    let mine = Array.of_list (List.rev !newly_done) in
    let counts = Coll.allgather mpi Datatype.int [| Array.length mine |] in
    let all_done = Coll.allgatherv mpi Datatype.int ~recv_counts:counts mine in
    Array.iter (fun id -> d.(id) <- true) all_done;
    remaining := !remaining - Array.length all_done;
    if !remaining > 0 then begin
      (* Round exchange 2: rebalance queue loads with a deterministic
         plan; ids travel through the sparse NBX all-to-all. *)
      let loads = Coll.allgather mpi Datatype.int [| Queue.length my_queue |] in
      let plan = rebalance_plan loads in
      let outgoing =
        List.filter_map
          (fun (src, dst, k) ->
            if src <> me then None
            else begin
              let ids = Array.init k (fun _ -> Queue.pop my_queue) in
              Some (dst, ids)
            end)
          plan
      in
      let incoming = Sparse_alltoall.alltoallv comm Datatype.int outgoing in
      List.iter
        (fun (_src, ids) ->
          Stats.add state.ctr.c_steals (Array.length ids);
          Array.iter (fun id -> Queue.add id my_queue) ids)
        incoming
    end
  done

(* ------------------------------------------------------------------ *)
(* Resync, commit, and the public entry point *)

let entry_codec_of result_codec = Serial.Codec.(list (pair key_codec result_codec))

(* Gather every rank's knowledge at comm rank 0 and broadcast the union
   back: after this, every rank's knowledge holds every result any
   survivor (or checkpoint replica) had — the checkpointed state a
   re-elected master resumes from. *)
let resync state entry_codec comm =
  let entries t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] in
  let all = Kamping.Serialized.gather comm entry_codec ~root:0 (entries state.knowledge) in
  let merged =
    if C.rank comm = 0 then begin
      let table = Hashtbl.copy state.knowledge in
      List.iter (List.iter (fun (k, r) -> merge_entry state table k r)) all;
      entries table
    end
    else []
  in
  let union = Kamping.Serialized.bcast comm entry_codec ~root:0 ~value:merged () in
  List.iter (fun (k, r) -> merge_entry state state.knowledge k r) union

let assemble state n =
  let out = Array.make n None in
  Hashtbl.iter
    (fun k r -> if k.k_task < n && out.(k.k_task) = None then out.(k.k_task) <- Some r)
    state.knowledge;
  Array.mapi
    (fun i -> function
      | Some r -> r
      | None -> Errdefs.usage_error "taskqueue: task %d missing after completion" i)
    out

let run ?(cfg = config ()) (comm : C.t) ~(task_codec : 'a Serial.Codec.t)
    ~(result_codec : 'b Serial.Codec.t) ?deps ~(tasks : 'a array)
    ~(exec : int -> 'a -> 'b) () : 'b array * C.t =
  let n = Array.length tasks in
  let deps =
    match deps with
    | None -> Array.make n []
    | Some d ->
        if Array.length d <> n then
          Errdefs.usage_error "taskqueue: deps length %d <> tasks length %d"
            (Array.length d) n;
        Array.iteri
          (fun id ds ->
            List.iter
              (fun dep ->
                if dep < 0 || dep >= id then
                  Errdefs.usage_error
                    "taskqueue: task %d has invalid dependency %d (must be an earlier task)"
                    id dep)
              ds)
          d;
        d
  in
  let rt = C.runtime comm in
  let state =
    {
      cfg;
      n_tasks = n;
      deps;
      knowledge = Hashtbl.create (max 16 n);
      nonce = 0;
      ctr = counters rt.Runtime.stats;
    }
  in
  let entry_codec = entry_codec_of result_codec in
  let assign_codec = Serial.Codec.(pair int (option task_codec)) in
  let res_msg_codec = Serial.Codec.(pair key_codec result_codec) in
  (* Workers receive payloads with assignments, so they keep a private
     copy of the task table they can fill in (master mode ships payloads;
     NBX mode relies on the collectively-submitted table). *)
  let my_tasks = Array.copy tasks in
  let protocol_body c =
    Comm.check_collective (C.mpi c) ~op:"taskqueue" ~root:(-1) ~ty:(mode_to_string cfg.mode);
    drain_ckpts state entry_codec (C.mpi c);
    resync state entry_codec c;
    (match cfg.mode with
    | Master_worker ->
        if C.rank c = 0 then
          ignore (master_loop state entry_codec assign_codec res_msg_codec c my_tasks exec)
        else worker_loop state entry_codec assign_codec res_msg_codec c my_tasks exec
    | Nbx -> nbx_loop state c my_tasks exec);
    (* Replicate the full result set everywhere before committing. *)
    resync state entry_codec c;
    assemble state n
  in
  (* Revoke-before-agree commit round (the test_failures.ml chaos-recovery
     protocol): every live rank reaches [agree] exactly once per attempt —
     a rank that detects a failure revokes first (waking peers parked in
     the queue protocol's receives) and contributes [false] instead of
     raising past the agreement, so nobody can leave while a peer still
     needs them for the next round's shrink.  The agreed verdict is
     uniform: all live ranks commit together or all re-enter
     [run_with_recovery]'s shrink together. *)
  let attempt c =
    let result =
      try Some (Ulfm.detect (fun () -> protocol_body c))
      with Ulfm.Failure_detected _ ->
        if not (Ulfm.is_revoked c) then Ulfm.revoke c;
        None
    in
    let intact = not (Comm.any_member_failed (C.mpi c)) in
    let ok = Ulfm.agree c (result <> None && intact) in
    match result with
    | Some v when ok -> v
    | _ -> raise (Ulfm.Failure_detected "taskqueue: round failed, recovering")
  in
  Ulfm.run_with_recovery ~max_retries:cfg.max_recovery_retries comm attempt
