(* Collective operations.

   All collectives are implemented on top of the point-to-point layer with
   real algorithms (binomial trees, Bruck concatenation, ring exchange,
   pairwise exchange, Hillis-Steele prefix), so their modelled cost emerges
   from the algorithm's message pattern rather than a closed formula:

   - [bcast]: binomial tree, or binomial scatter + ring allgather for
     long messages;
   - [reduce]: binomial tree, O(log p) rounds;
   - [allreduce]: recursive doubling for short messages, Rabenseifner
     (recursive-halving reduce-scatter + recursive-doubling allgather)
     for long commutative ones, reduce+bcast otherwise;
   - [allgather]: Bruck concatenation, O(log p) rounds (any p), or ring
     when pinned or when the blocks are empty;
   - [allgatherv]: ring, p-1 rounds (bandwidth-optimal);
   - [reduce_scatter]/[reduce_scatter_block]: pairwise exchange with an
     O(n/p) peak buffer for long commutative ones; reduce + scatter(v)
     otherwise;
   - [alltoall]/[alltoallv]: pairwise exchange; [alltoallv] skips empty
     pairs but charges the O(p) count-array scan that makes dense
     collectives scale linearly in p (paper §V-A);
   - [alltoallw]: like [alltoallv] but pays per-peer datatype setup and
     cannot skip empty pairs — reproducing why MPL's lowering of vector
     collectives to alltoallw is slow (paper §II);
   - [scan]/[exscan]: Hillis-Steele, O(log p) rounds;
   - [barrier]: dissemination; [ibarrier]: rendezvous with modelled
     dissemination cost (used by the NBX sparse all-to-all);
   - neighbor collectives: direct exchange with the static graph topology.

   Where more than one algorithm exists, {!Coll_algo.choose} picks one
   per call from (payload bytes, communicator size, commutativity): the
   cheapest under the run's [Net_model]; the choice is counted in a
   [coll.algo.<op>.<algo>] stats counter and emitted as a nested trace
   span, and can be pinned through the run's model ([Coll_algo.pin]).

   Each algorithm is written once, as a schedule: rounds of [send],
   [recv] and [recv_fold] steps over caller buffers given as ranges, plus
   local copies and folds.  Every step sends or receives on the
   algorithm's own entry of [Coll_algo]'s internal-tag table, so the tag
   alone tells the communication matrix, a blocked call's report and a
   count error which algorithm (or lowered phase) moved the message.  A
   driver value [x] says how a receive step waits.  Blocking calls run
   the schedule straight through.  Nonblocking
   calls and persistent cycles run it progressively: a receive whose
   message is not there suspends the schedule, which tests and the rank's
   blocking waits resume (DESIGN.md §6.1).

   Every collective starts with [Comm.check_collective], which raises
   ERR_REVOKED / ERR_PROC_FAILED per ULFM semantics and, with the {!Check}
   sanitizer on, feeds its collective call-order check. *)

let empty_int : int array = [||]

(* [root] is the comm-rank root (-1 for unrooted collectives) and [ty] the
   element-type name ("" for untyped ops): plain immediates, so the
   sanitizer-off path stays allocation-free. *)
let prologue comm ~op ~root ~ty =
  Runtime.check_alive (Comm.runtime comm) (Comm.world_rank comm);
  Comm.check_collective comm ~op ~root ~ty

let record comm ~op ~bytes = Runtime.record (Comm.runtime comm) ~op ~bytes

(* Trace spans without closures.  A span is the name it was opened
   under, or [no_span]; a call site brackets its body as

     let span = enter comm ~op ~root ~ty ~bytes in
     match body with r -> leave comm span r | exception e -> leave_raise comm span e

   so the span closes on the way out, returned or raised, as
   [Fun.protect] would close it, and no path (traced or not) builds a
   closure.  With tracing off, opening and closing are a flag test. *)
let no_span = ""

let open_span comm name =
  Trace.span_begin (Comm.runtime comm).Runtime.trace ~rank:(Comm.world_rank comm)
    ~cat:"coll" ~name;
  name

let leave comm span r =
  if span != no_span then
    Trace.span_end (Comm.runtime comm).Runtime.trace ~rank:(Comm.world_rank comm)
      ~cat:"coll" ~name:span;
  r

let leave_raise comm span e =
  let bt = Printexc.get_raw_backtrace () in
  leave comm span ();
  Printexc.raise_with_backtrace e bt

(* A blocking collective: a trace span on the caller's virtual timeline
   around the prologue, the profile entry and the body.  Collectives
   lowered onto others (allreduce onto reduce + bcast) show up as nested
   spans. *)
let enter comm ~op ~root ~ty ~bytes =
  let span = open_span comm op in
  (match prologue comm ~op ~root ~ty with
  | () -> ()
  | exception e -> leave_raise comm span e);
  record comm ~op ~bytes;
  span

let choose comm alg_op ~bytes ~commutative =
  Coll_algo.choose (Comm.runtime comm).Runtime.model alg_op ~bytes ~size:(Comm.size comm)
    ~commutative

(* Charge the O(p) cost of scanning per-rank count/displacement arrays in
   dense vector collectives. *)
let charge_dense_scan comm =
  Runtime.charge_dense_scan (Comm.runtime comm) (Comm.world_rank comm)
    ~entries:(Comm.size comm)

let scratch_like (dt : 'a Datatype.t) n : 'a array =
  if n = 0 then [||] else Array.make n (Datatype.zero_elem dt)

let exclusive_prefix_sum (counts : int array) =
  let n = Array.length counts in
  let displs = Array.make n 0 in
  for i = 1 to n - 1 do
    displs.(i) <- displs.(i - 1) + counts.(i - 1)
  done;
  displs

(* A block table: block b of a buffer is [t.(b), t.(b+1)), so the table
   has one entry more than there are blocks and ends with the total. *)
let blocks (counts : int array) =
  let n = Array.length counts in
  let t = Array.make (n + 1) 0 in
  for b = 1 to n do
    t.(b) <- t.(b - 1) + counts.(b - 1)
  done;
  t

(* [total] elements in [parts] blocks whose sizes differ by at most one,
   the larger ones first. *)
let even_blocks ~total ~parts =
  let t = Array.make (parts + 1) 0 in
  for b = 1 to parts do
    t.(b) <- t.(b - 1) + (total / parts) + if b - 1 < total mod parts then 1 else 0
  done;
  t

let block_count (t : int array) b = t.(b + 1) - t.(b)

(* ------------------------------------------------------------------ *)
(* Schedules and their drivers *)

(* A schedule on the progressive driver of [comm]: [k] is where it
   suspended, waiting for the message from comm rank [src] with (shifted)
   tag [tag] or, with [tag] negative, for [until]; an MPI error it raised
   is kept for test/wait.  [by_clock] is the rule the running advance
   takes steps by: a message that has arrived by the rank's virtual
   clock, or one merely in the mailbox.  [last_test] is the clock at the
   previous test. *)
type prog = {
  comm : Comm.t;
  mutable k : (unit, unit) Effect.Deep.continuation option;
  mutable src : int;
  mutable tag : int;
  mutable until : unit -> bool;
  mutable by_clock : bool;
  mutable error : exn option;
  mutable last_test : float;
}

(* How a schedule's steps run: blocking ([prog = None]) or progressive.
   [shift] moves the operation's tags into a window of its own: a
   progressive instance may still be in flight when the next collective
   on the communicator starts, and their messages must not cross-match. *)
type drv = { shift : int; prog : prog option }

let blocking = { shift = 0; prog = None }

(* Performed by a progressive schedule that cannot go on yet; the driver
   keeps the continuation and resumes it later. *)
type _ Effect.t += Await : unit Effect.t

let waits s ~by_clock =
  if s.tag >= 0 then P2p.matchable s.comm ~arrived:by_clock ~source:s.src ~tag:s.tag
  else s.until ()

(* The algorithm selected for this call, visible to run reports: bump the
   [coll.algo.<op>.<algo>] counter and, on the blocking driver, open an
   [<op>.<algo>] span inside the collective's own span.  Both names are
   preallocated in Coll_algo, so with tracing off this costs one counter
   increment.  A progressive schedule may suspend mid-algorithm, so it
   opens no span. *)
let dispatch x comm alg_op algo =
  let rt = Comm.runtime comm in
  Stats.incr (Stats.counter rt.Runtime.stats (Coll_algo.counter_name alg_op algo));
  if x.prog <> None then no_span else open_span comm (Coll_algo.span_name alg_op algo)

(* A collective lowered onto another one: on the blocking driver the
   inner one gets the prologue, profile entry and span of an ad-hoc call;
   a progressive schedule records only the operation it was posted as. *)
let phase x comm ~op ~root ~ty ~bytes =
  if x.prog <> None then no_span else enter comm ~op ~root ~ty ~bytes

(* --- steps --- *)

let send x comm dt ~tag ~dest buf ~pos ~count =
  P2p.send_range comm dt ~dest ~tag:(tag + x.shift) buf ~pos ~count

(* On the progressive driver a receive step runs at once only if its
   message is there by the driver's current rule (or its source has
   failed); otherwise the schedule suspends until its driver finds it
   there. *)
let arrived x comm ~tag ~src =
  match x.prog with
  | Some s when not (P2p.matchable comm ~arrived:s.by_clock ~source:src ~tag) ->
      s.src <- src;
      s.tag <- tag;
      Effect.perform Await
  | _ -> ()

(* Receive exactly [count] elements into [buf] at [pos]. *)
let recv x comm dt ~tag ~src buf ~pos ~count =
  let shifted = tag + x.shift in
  arrived x comm ~tag:shifted ~src;
  let got = P2p.recv_range comm dt ~source:src ~tag:shifted ~pos ~maxcount:count buf in
  if got <> count then
    Comm.error comm Errdefs.Err_count "%s: expected %d elements from rank %d, got %d"
      (Coll_algo.tag_name tag) count src got

(* Receive a message of a length this rank does not know. *)
let recv_dyn x comm dt ~tag ~src =
  let tag = tag + x.shift in
  arrived x comm ~tag ~src;
  P2p.recv_fresh comm dt ~source:src ~tag

(* [acc.(pos+i) <- acc.(pos+i) op from.(fpos+i)] for [count] elements. *)
let fold (op : 'a Reduce_op.t) ~(acc : 'a array) ~pos ~(from : 'a array) ~fpos ~count =
  for i = 0 to count - 1 do
    acc.(pos + i) <- Reduce_op.apply op acc.(pos + i) from.(fpos + i)
  done

(* Receive [count] elements into [scratch] and fold them into [buf]. *)
let recv_fold x comm dt op ~tag ~src ~scratch buf ~pos ~count =
  recv x comm dt ~tag ~src scratch ~pos:0 ~count;
  fold op ~acc:buf ~pos ~from:scratch ~fpos:0 ~count

(* --- the progressive driver --- *)

(* Built once per schedule: a suspension allocates only its continuation. *)
let handler (s : prog) : (unit, unit) Effect.Deep.handler =
  let suspend = Some (fun k -> s.k <- Some k) in
  {
    retc = (fun () -> ());
    (* An MPI error belongs to the request; anything else (a killed
       process, a usage error) ends the fiber as in a blocking call. *)
    exnc = (function Errdefs.Mpi_error _ as e -> s.error <- Some e | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Await -> (suspend : ((a, unit) Effect.Deep.continuation -> unit) option)
        | _ -> None);
  }

(* Resume the schedule, in the owning fiber, for as long as what it waits
   for is there by the rule [by_clock]; [true] once it has finished. *)
let rec advance s ~by_clock =
  s.by_clock <- by_clock;
  match s.k with
  | None -> true
  | Some k ->
      if waits s ~by_clock then begin
        s.k <- None;
        Effect.Deep.continue k ();
        advance s ~by_clock
      end
      else false

(* Where a suspended schedule of operation [op] waits, from its tag's
   entry: an algorithm of [op] (".recursive_doubling"), nothing for
   [op]'s only algorithm, or the operation a lowered phase runs
   (".bcast.binomial"); nothing while it waits for a rendezvous. *)
let wait_suffix ~op tag =
  let e = Coll_algo.tag_name tag in
  let n = String.length op in
  if tag < 0 || e = op then ""
  else if String.starts_with ~prefix:(op ^ ".") e then String.sub e n (String.length e - n)
  else "." ^ e

(* The progressive driver: the request that runs [body], persistent
   (created inactive, each [Request.start] runs one cycle) or, for a
   nonblocking call, started at once.  A cycle runs the prologue, records
   [op] through a handle resolved here, bumps the frozen algorithm's
   [counter] and sends in the tag window taken here
   (collectives are called in the same order everywhere, so windows
   agree); an MPI error it raises surfaces at test/wait.  A started
   schedule that has to wait joins the rank's in-flight list.  A test
   takes a step once its message has arrived by the rank's virtual clock,
   so computation between tests overlaps it, or, at the clock of the
   previous test (a polling loop), once it is in the mailbox, so polling
   completes.  One rank has no peer to wait for, so its persistent cycle
   runs at [start] with no effect handler: the allocation-free case. *)
let schedule comm ~op ~root ~ty ~bytes ~(counter : string option) ~persistent
    (body : drv -> unit) : Request.t =
  let rt = Comm.runtime comm in
  let inflight = rt.Runtime.inflight.(Comm.world_rank comm) in
  let prep = Profiling.prepare rt.Runtime.profile op in
  let counter = Option.map (Stats.counter rt.Runtime.stats) counter in
  let gen = comm.Comm.my_sched_gen in
  comm.Comm.my_sched_gen <- gen + 1;
  let s =
    {
      comm;
      k = None;
      src = -1;
      tag = -1;
      until = (fun () -> false);
      by_clock = true;
      error = None;
      last_test = neg_infinity;
    }
  in
  let x =
    { shift = Coll_algo.first_window_op + (Coll_algo.tag_window * gen); prog = Some s }
  in
  let cycle () =
    prologue comm ~op ~root ~ty;
    Profiling.record_prepared rt.Runtime.profile prep ~bytes;
    Option.iter Stats.incr counter;
    body x
  in
  let name = if persistent then op ^ "_init" else op in
  (* A posted operation is named "i" ^ the operation it runs. *)
  let base = if persistent then op else String.sub op 1 (String.length op - 1) in
  let describe () =
    if s.k = None then name
    else Printf.sprintf "%s%s (src %d)" name (wait_suffix ~op:base s.tag) s.src
  in
  if persistent && Comm.size comm = 1 then
    Request.make ~start:cycle ~ready:(fun () -> true) ~finalize:(fun () -> Status.empty)
      ~describe inflight
  else begin
    let h = handler s in
    let sched =
      {
        Request.step = (fun () -> advance s ~by_clock:false);
        wakes = (fun () -> s.k <> None && waits s ~by_clock:false);
      }
    in
    let start () =
      s.by_clock <- true;
      Effect.Deep.match_with cycle () h;
      if s.k <> None then Request.enlist inflight sched
    in
    let test () =
      let now = rt.Runtime.clocks.(Comm.world_rank comm) in
      let by_clock = now > s.last_test in
      s.last_test <- now;
      advance s ~by_clock
    in
    let finalize () =
      match s.error with
      | None -> Status.empty
      | Some e ->
          s.error <- None;
          raise e
    in
    let req =
      Request.make ?start:(if persistent then Some start else None) ~advance:test
        ~ready:(fun () -> s.k = None) ~finalize ~describe inflight
    in
    if not persistent then start ();
    req
  end

(* A nonblocking collective, recorded once under its own name with its
   payload bytes; the result cell is filled at completion. *)
let post comm ~op ~root ~ty ~bytes (run : drv -> 'r) : Request.t * 'r option ref =
  let rt = Comm.runtime comm in
  let result = ref None in
  let req =
    schedule comm ~op ~root ~ty ~bytes ~counter:None ~persistent:false (fun x ->
        result := Some (run x))
  in
  if Check.enabled rt.Runtime.check then
    Check.track_request rt.Runtime.check ~rank:(Comm.world_rank comm) ~kind:op req;
  (req, result)

(* ------------------------------------------------------------------ *)
(* Barrier: dissemination *)

let barrier_run comm =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let k = ref 1 in
  while !k < n do
    let dest = (r + !k) mod n in
    let src = (r - !k + n) mod n in
    P2p.send_range comm Datatype.int ~dest ~tag:Coll_algo.tag_barrier empty_int ~pos:0
      ~count:0;
    ignore (P2p.recv_fresh comm Datatype.int ~source:src ~tag:Coll_algo.tag_barrier);
    k := !k * 2
  done

let barrier comm =
  let span = enter comm ~op:"barrier" ~root:(-1) ~ty:"" ~bytes:0 in
  match barrier_run comm with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Non-blocking barrier: a rendezvous cell that waits for every member
   and completes at the latest arrival plus a modelled dissemination
   term.  Deliberately not a schedule: the NBX sparse all-to-all polls
   it, and a message-based dissemination would change that workload's
   modelled time (DESIGN.md §2.2).  A member that fails, or that has
   observed a revocation, before arriving makes test/wait raise. *)
let ibarrier comm =
  prologue comm ~op:"ibarrier" ~root:(-1) ~ty:"";
  record comm ~op:"ibarrier" ~bytes:0;
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let cell = Comm.arrive comm Comm.Ibarrier in
  let req =
    Request.make
      ~ready:(fun () -> Comm.settled comm cell)
      ~finalize:(fun () ->
        Comm.leave comm cell ~op:"ibarrier";
        Comm.sync_rounds comm cell ~k:1 ~m:(Comm.size comm);
        Status.make ~source:(Comm.rank comm) ~tag:0 ~count:0 ~bytes:0)
      ~describe:(fun () -> Printf.sprintf "ibarrier gen %d" (Comm.generation cell))
      rt.Runtime.inflight.(me)
  in
  if Check.enabled rt.Runtime.check then
    Check.track_request rt.Runtime.check ~rank:me ~kind:"ibarrier" req;
  req

(* ------------------------------------------------------------------ *)
(* Ring allgather: allgather for long messages, allgatherv, and the
   second phase of the long-message bcast. *)

(* In round s the rank at ring position v forwards block (v - s) to its
   right neighbour and receives block (v - s - 1) from its left one.
   Ring positions are ranks rotated by [rot] (bcast's root).  Empty
   blocks still flow, so the ring stays paired. *)
let ring x comm dt ~tag ~rot ~(table : int array) buf =
  let n = Comm.size comm in
  let v = (Comm.rank comm - rot + n) mod n in
  let right = (v + 1 + rot) mod n in
  let left = (v - 1 + n + rot) mod n in
  for s = 0 to n - 2 do
    let sb = (v - s + n) mod n in
    let rb = (sb - 1 + n) mod n in
    send x comm dt ~tag ~dest:right buf ~pos:table.(sb) ~count:(block_count table sb);
    recv x comm dt ~tag ~src:left buf ~pos:table.(rb) ~count:(block_count table rb)
  done

(* Gather every rank's [data] into a fresh buffer laid out by [table];
   nothing moves when the total is empty. *)
let ring_allgather comm dt ~tag ~(table : int array) data =
  let n = Comm.size comm in
  if table.(n) = 0 then [||]
  else begin
    let out = scratch_like dt table.(n) in
    Array.blit data 0 out table.(Comm.rank comm) (Array.length data);
    ring blocking comm dt ~tag ~rot:0 ~table out;
    out
  end

(* ------------------------------------------------------------------ *)
(* Broadcast: binomial tree, or binomial scatter + ring allgather for
   long messages. *)

(* The comm rank of virtual rank [v] in a tree rooted at [root].  Helpers
   such as this one are top-level functions: a local one that captures
   its context allocates a closure per call of the collective. *)
let unrotate ~n ~root v = (v + root) mod n

(* The mask at which a binomial tree rooted at vrank 0 reaches [vrank]:
   the lowest set bit of [vrank] (the parent is [vrank - mask]), or the
   top mask for the root. *)
let binomial_mask ~n ~vrank =
  let mask = ref 1 in
  if vrank <> 0 then
    while vrank land !mask = 0 do
      mask := !mask lsl 1
    done
  else
    while !mask < n do
      mask := !mask lsl 1
    done;
  !mask

(* Binomial tree from [root]: receive from the parent, relay to the
   children.  Non-roots receive [total] elements into [buf]; with
   [total < 0] they do not know the count and the received array becomes
   the buffer.  Returns the buffer. *)
let bcast_binomial x comm dt ~root ~total (buf : 'a array) : 'a array =
  let n = Comm.size comm in
  let vrank = (Comm.rank comm - root + n) mod n in
  let mask = ref (binomial_mask ~n ~vrank) in
  let buf =
    if vrank = 0 then buf
    else
      let src = unrotate ~n ~root (vrank - !mask) in
      if total < 0 then recv_dyn x comm dt ~tag:Coll_algo.tag_bcast_binomial ~src
      else begin
        recv x comm dt ~tag:Coll_algo.tag_bcast_binomial ~src buf ~pos:0 ~count:total;
        buf
      end
  in
  mask := !mask lsr 1;
  while !mask > 0 do
    if vrank + !mask < n then
      send x comm dt ~tag:Coll_algo.tag_bcast_binomial
        ~dest:(unrotate ~n ~root (vrank + !mask))
        buf ~pos:0 ~count:(Array.length buf);
    mask := !mask lsr 1
  done;
  buf

(* Long-message bcast (van de Geijn): binomial scatter of p blocks from
   the root, then a ring allgather of the blocks.  2n bytes per rank on
   the wire instead of the binomial tree's n*log p.  [buf] has the full
   length on every rank; [table] is its even block table. *)
let bcast_scatter_ring x comm dt ~root ~(table : int array) buf =
  let n = Comm.size comm in
  let vrank = (Comm.rank comm - root + n) mod n in
  (* Scatter phase over vranks: a node entered with mask m holds blocks
     [vrank, vrank + min m (n - vrank)) and forwards the upper half to the
     child at vrank + m/2 as m halves. *)
  let span v m = table.(v + Stdlib.min m (n - v)) - table.(v) in
  let mask = ref (binomial_mask ~n ~vrank) in
  if vrank <> 0 then
    recv x comm dt ~tag:Coll_algo.tag_bcast_scatter
      ~src:(unrotate ~n ~root (vrank - !mask))
      buf ~pos:table.(vrank) ~count:(span vrank !mask);
  mask := !mask lsr 1;
  while !mask > 0 do
    let child = vrank + !mask in
    if child < n then
      send x comm dt ~tag:Coll_algo.tag_bcast_scatter ~dest:(unrotate ~n ~root child) buf
        ~pos:table.(child)
        ~count:(span child !mask);
    mask := !mask lsr 1
  done;
  (* Ring allgather of the n blocks, in vrank space. *)
  ring x comm dt ~tag:Coll_algo.tag_bcast_ring ~rot:root ~table buf

(* In MPI the element count of a bcast is an argument on every rank; our
   binding takes the payload at the root only, so size-keyed algorithm
   selection needs the root to publish the count first: a rendezvous
   cell that waits for the root (simulator state, not a modelled
   message).  A root that fails or observes a revocation before
   publishing raises here. *)
let bcast_count_rendezvous x comm ~root ~count_at_root =
  let cell = Comm.arrive comm (Comm.Bcast { root }) ~value:count_at_root in
  (if not (Comm.settled comm cell) then
     (* A progressive schedule suspends: it never blocks inside itself. *)
     match x.prog with
     | Some s ->
         s.src <- root;
         s.tag <- -1;
         s.until <- (fun () -> Comm.settled comm cell);
         Effect.perform Await
     | None -> Comm.await comm cell);
  Comm.leave comm cell ~op:"bcast";
  cell.Comm.brought.(root)

(* The bcast after its prologue.  A pinned binomial tree skips the count
   rendezvous, so its non-roots receive without knowing the count. *)
let bcast_run x comm (dt : 'a Datatype.t) ~root (data : 'a array option) : 'a array =
  let r = Comm.rank comm in
  let mine = match data with Some d when r = root -> d | _ -> [||] in
  if Comm.size comm = 1 then Option.value data ~default:[||]
  else
    match Coll_algo.pinned (Comm.runtime comm).Runtime.model Coll_algo.Bcast with
    | Some Coll_algo.Binomial -> (
        let span = dispatch x comm Coll_algo.Bcast Coll_algo.Binomial in
        match bcast_binomial x comm dt ~root ~total:(-1) mine with
        | r -> leave comm span r
        | exception e -> leave_raise comm span e)
    | _ -> (
        let count_at_root = Array.length mine in
        let total = bcast_count_rendezvous x comm ~root ~count_at_root in
        let bytes = Datatype.size_of_count dt total in
        let algo = choose comm Coll_algo.Bcast ~bytes ~commutative:true in
        let buf = if r = root then mine else scratch_like dt total in
        let span = dispatch x comm Coll_algo.Bcast algo in
        match
          match algo with
          | Coll_algo.Scatter_allgather ->
              let table = even_blocks ~total ~parts:(Comm.size comm) in
              bcast_scatter_ring x comm dt ~root ~table buf;
              buf
          | _ -> bcast_binomial x comm dt ~root ~total buf
        with
        | r -> leave comm span r
        | exception e -> leave_raise comm span e)

(* Validate a bcast's arguments and return the bytes it records. *)
let bcast_bytes comm dt ~root data =
  Comm.check_rank comm root;
  match data with
  | Some d when Comm.rank comm = root -> Datatype.size_of_count dt (Array.length d)
  | None when Comm.rank comm = root -> Errdefs.usage_error "bcast: root must provide data"
  | _ -> 0

let bcast comm (dt : 'a Datatype.t) ~root (data : 'a array option) : 'a array =
  let bytes = bcast_bytes comm dt ~root data in
  let span = enter comm ~op:"bcast" ~root ~ty:(Datatype.name dt) ~bytes in
  match bcast_run blocking comm dt ~root data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* ------------------------------------------------------------------ *)
(* Gather / Scatter (rooted, direct exchange) *)

(* Rank src's block lands in [out] at [table.(src)].  The equal-count
   gather ([skip_empty]) skips zero-count messages on both sides, since
   every rank knows the count; gatherv sends them, since only the root
   does — skipping would leave stale messages that corrupt the next
   collective on the same (source, tag) pair. *)
let gather_sched x comm dt ~root ~skip_empty ~(table : int array) data out =
  let len = Array.length data in
  if Comm.rank comm <> root then begin
    if not (skip_empty && len = 0) then
      send x comm dt ~tag:Coll_algo.tag_gather ~dest:root data ~pos:0 ~count:len
  end
  else begin
    Array.blit data 0 out table.(root) len;
    for src = 0 to Comm.size comm - 1 do
      let count = block_count table src in
      if src <> root && not (skip_empty && count = 0) then
        recv x comm dt ~tag:Coll_algo.tag_gather ~src out ~pos:table.(src) ~count
    done
  end

(* Equal-count gather: the rank-ordered concatenation at the root. *)
let gather_equal x comm dt ~root data =
  let n = Comm.size comm in
  let total = n * Array.length data in
  let root_here = Comm.rank comm = root in
  let table = if root_here then even_blocks ~total ~parts:n else empty_int in
  let out = if root_here then scratch_like dt total else [||] in
  gather_sched x comm dt ~root ~skip_empty:true ~table data out;
  out

let gatherv_run comm dt ~root ~(table : int array) data =
  charge_dense_scan comm;
  let out =
    if Comm.rank comm = root then scratch_like dt table.(Comm.size comm) else [||]
  in
  gather_sched blocking comm dt ~root ~skip_empty:false ~table data out;
  out

let gatherv comm (dt : 'a Datatype.t) ~root ?recv_counts (data : 'a array) : 'a array =
  Comm.check_rank comm root;
  let n = Comm.size comm in
  let table =
    if Comm.rank comm <> root then empty_int
    else
      match recv_counts with
      | None -> Errdefs.usage_error "gatherv: root must provide recv_counts"
      | Some c when Array.length c <> n ->
          Errdefs.usage_error "gatherv: recv_counts has length %d, expected %d"
            (Array.length c) n
      | Some c when c.(root) <> Array.length data ->
          Errdefs.usage_error "gatherv: own count %d does not match data length %d"
            c.(root) (Array.length data)
      | Some c -> blocks c
  in
  let bytes = Datatype.size_of_count dt (Array.length data) in
  let span = enter comm ~op:"gatherv" ~root ~ty:(Datatype.name dt) ~bytes in
  match gatherv_run comm dt ~root ~table data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let gather comm (dt : 'a Datatype.t) ~root (data : 'a array) : 'a array =
  Comm.check_rank comm root;
  let bytes = Datatype.size_of_count dt (Array.length data) in
  let span = enter comm ~op:"gather" ~root ~ty:(Datatype.name dt) ~bytes in
  match gather_equal blocking comm dt ~root data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* The root sends block dest of [data] to every other rank; the others
   receive theirs at whatever length it has.  Only the root reads
   [table]. *)
let scatter_sched x comm dt ~root ~(table : int array) data =
  if Comm.rank comm = root then begin
    for dest = 0 to Comm.size comm - 1 do
      if dest <> root then
        send x comm dt ~tag:Coll_algo.tag_scatter ~dest data ~pos:table.(dest)
          ~count:(block_count table dest)
    done;
    Array.sub data table.(root) (block_count table root)
  end
  else recv_dyn x comm dt ~tag:Coll_algo.tag_scatter ~src:root

(* Validate a scatter's arguments; returns the root's data and block
   table (empty elsewhere). *)
let scatter_args comm ~op ~root ~table data =
  Comm.check_rank comm root;
  if Comm.rank comm <> root then ([||], empty_int)
  else
    match data with
    | None -> Errdefs.usage_error "%s: root must provide data" op
    | Some d -> (d, table d)

let scatterv comm (dt : 'a Datatype.t) ~root ?send_counts (data : 'a array option) :
    'a array =
  let n = Comm.size comm in
  let data, table =
    scatter_args comm ~op:"scatterv" ~root data ~table:(fun d ->
        let counts =
          match send_counts with
          | Some c when Array.length c = n -> c
          | Some c ->
              Errdefs.usage_error "scatterv: send_counts has length %d, expected %d"
                (Array.length c) n
          | None -> Errdefs.usage_error "scatterv: root must provide send_counts"
        in
        let table = blocks counts in
        if table.(n) <> Array.length d then
          Errdefs.usage_error "scatterv: counts sum to %d but data has %d elements"
            table.(n) (Array.length d);
        table)
  in
  let span = enter comm ~op:"scatterv" ~root ~ty:(Datatype.name dt) ~bytes:0 in
  charge_dense_scan comm;
  match scatter_sched blocking comm dt ~root ~table data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let scatter comm (dt : 'a Datatype.t) ~root (data : 'a array option) : 'a array =
  let n = Comm.size comm in
  let data, table =
    scatter_args comm ~op:"scatter" ~root data ~table:(fun d ->
        if Array.length d mod n <> 0 then
          Errdefs.usage_error "scatter: data length %d not divisible by %d"
            (Array.length d) n;
        even_blocks ~total:(Array.length d) ~parts:n)
  in
  let span = enter comm ~op:"scatter" ~root ~ty:(Datatype.name dt) ~bytes:0 in
  match scatter_sched blocking comm dt ~root ~table data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* ------------------------------------------------------------------ *)
(* Allgather: Bruck concatenation (works for any p, O(log p) rounds) by
   default, ring exchange (p-1 rounds, bandwidth-optimal) for long
   messages. *)

let allgather_bruck comm (dt : 'a Datatype.t) (data : 'a array) : 'a array =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let count = Array.length data in
  (* [buf] holds blocks r, r+1, ..., r+held-1 (mod n), in that order. *)
  let buf = ref (Array.copy data) in
  let held = ref 1 in
  while !held < n do
    let send_blocks = Stdlib.min !held (n - !held) in
    let dest = (r - !held + n) mod n in
    let src = (r + !held) mod n in
    (* Send our first [send_blocks] blocks (they become the receiver's
       blocks [held..held+send_blocks-1]); receive symmetrically. *)
    P2p.send_range comm dt ~dest ~tag:Coll_algo.tag_allgather_bruck !buf ~pos:0
      ~count:(send_blocks * count);
    let incoming = P2p.recv_fresh comm dt ~source:src ~tag:Coll_algo.tag_allgather_bruck in
    buf := Array.append !buf incoming;
    held := !held + send_blocks
  done;
  (* Rotate from local order (starting at r) to absolute order. *)
  let out = scratch_like dt (n * count) in
  if count > 0 then
    for b = 0 to n - 1 do
      let abs_block = (r + b) mod n in
      Array.blit !buf (b * count) out (abs_block * count) count
    done;
  out

let allgather_ring_impl comm dt data =
  let n = Comm.size comm in
  ring_allgather comm dt ~tag:Coll_algo.tag_allgather_ring
    ~table:(even_blocks ~total:(n * Array.length data) ~parts:n)
    data

let allgather_run comm dt ~bytes data =
  if Comm.size comm = 1 then Array.copy data
  else begin
    let algo = choose comm Coll_algo.Allgather ~bytes ~commutative:true in
    let span = dispatch blocking comm Coll_algo.Allgather algo in
    match
      match algo with
      | Coll_algo.Ring -> allgather_ring_impl comm dt data
      | _ -> allgather_bruck comm dt data
    with
    | r -> leave comm span r
    | exception e -> leave_raise comm span e
  end

let allgather comm (dt : 'a Datatype.t) (data : 'a array) : 'a array =
  let count = Array.length data in
  let bytes = Datatype.size_of_count dt count in
  let span = enter comm ~op:"allgather" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match allgather_run comm dt ~bytes data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Allgatherv: ring exchange with per-rank block sizes.  [recv_counts] must
   be provided on every rank (MPI semantics); the binding layer is what
   infers it when omitted (paper §III-A). *)
let allgatherv comm (dt : 'a Datatype.t) ~(recv_counts : int array) (data : 'a array) :
    'a array =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  if Array.length recv_counts <> n then
    Errdefs.usage_error "allgatherv: recv_counts has length %d, expected %d"
      (Array.length recv_counts) n;
  if recv_counts.(r) <> Array.length data then
    Errdefs.usage_error "allgatherv: own recv_count %d does not match data length %d"
      recv_counts.(r) (Array.length data);
  let bytes = Datatype.size_of_count dt (Array.length data) in
  let span = enter comm ~op:"allgatherv" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  charge_dense_scan comm;
  let table = blocks recv_counts in
  match ring_allgather comm dt ~tag:Coll_algo.tag_allgatherv ~table data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* ------------------------------------------------------------------ *)
(* Alltoall family: pairwise exchange *)

(* Round s sends block (r + s) and receives block (r - s).  [skip_empty]
   (alltoallv) skips zero-count pairs — both sides know the counts;
   alltoall and alltoallw send every pair. *)
let alltoall_sched x comm dt ~tag ~skip_empty ~(send_counts : int array)
    ~(sdispls : int array) ~(recv_counts : int array) ~(rdispls : int array) data out =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  if send_counts.(r) > 0 then begin
    if send_counts.(r) <> recv_counts.(r) then
      Comm.error comm Errdefs.Err_count "%s: self send/recv count mismatch"
        (Coll_algo.tag_name tag);
    Array.blit data sdispls.(r) out rdispls.(r) send_counts.(r)
  end;
  for s = 1 to n - 1 do
    let dest = (r + s) mod n in
    let src = (r - s + n) mod n in
    if not (skip_empty && send_counts.(dest) = 0) then
      send x comm dt ~tag ~dest data ~pos:sdispls.(dest) ~count:send_counts.(dest);
    if not (skip_empty && recv_counts.(src) = 0) then
      recv x comm dt ~tag ~src out ~pos:rdispls.(src) ~count:recv_counts.(src)
  done

let alltoall_run comm dt data =
  let n = Comm.size comm in
  let count = Array.length data / n in
  let counts = Array.make n count in
  let displs = Array.init n (fun i -> i * count) in
  let out = scratch_like dt (Array.length data) in
  alltoall_sched blocking comm dt ~tag:Coll_algo.tag_alltoall ~skip_empty:false
    ~send_counts:counts ~sdispls:displs ~recv_counts:counts ~rdispls:displs data out;
  out

let alltoall comm (dt : 'a Datatype.t) (data : 'a array) : 'a array =
  let n = Comm.size comm in
  if Array.length data mod n <> 0 then
    Errdefs.usage_error "alltoall: data length %d not divisible by %d"
      (Array.length data) n;
  let bytes = Datatype.size_of_count dt (Array.length data) in
  let span = enter comm ~op:"alltoall" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match alltoall_run comm dt data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Variable alltoall.  Counts and displacements are all required, as in
   MPI — computing sensible defaults is the binding layer's job (§III-A).
   Empty pairs are skipped (both sides know the counts), but every rank
   pays the O(p) count-array scan.  Returns the bytes it records. *)
let alltoallv_bytes comm dt ~op ~send_counts ~recv_counts =
  let n = Comm.size comm in
  if Array.length send_counts <> n || Array.length recv_counts <> n then
    Errdefs.usage_error "%s: counts arrays must have length %d" op n;
  Datatype.size_of_count dt (Array.fold_left ( + ) 0 send_counts)

let alltoallv_run x comm dt ~send_counts ~send_displs ~recv_counts ~recv_displs data =
  charge_dense_scan comm;
  let n = Comm.size comm in
  let out = scratch_like dt (recv_displs.(n - 1) + recv_counts.(n - 1)) in
  alltoall_sched x comm dt ~tag:Coll_algo.tag_alltoallv ~skip_empty:true
    ~send_counts ~sdispls:send_displs ~recv_counts ~rdispls:recv_displs data out;
  out

let alltoallv comm (dt : 'a Datatype.t) ~(send_counts : int array)
    ~(send_displs : int array) ~(recv_counts : int array) ~(recv_displs : int array)
    (data : 'a array) : 'a array =
  let bytes = alltoallv_bytes comm dt ~op:"alltoallv" ~send_counts ~recv_counts in
  let span = enter comm ~op:"alltoallv" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match
    alltoallv_run blocking comm dt ~send_counts ~send_displs ~recv_counts ~recv_displs data
  with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

let alltoallw_run comm dt ~send_counts ~recv_counts data =
  charge_dense_scan comm;
  let rt = Comm.runtime comm in
  let n = Comm.size comm in
  (* Datatype setup: one derived datatype per peer, send and receive
     side. *)
  Runtime.advance_clock rt (Comm.world_rank comm)
    (2. *. float_of_int n *. rt.Runtime.model.Net_model.alltoallw_type_setup);
  let rdispls = exclusive_prefix_sum recv_counts in
  let out = scratch_like dt (rdispls.(n - 1) + recv_counts.(n - 1)) in
  alltoall_sched blocking comm dt ~tag:Coll_algo.tag_alltoallw ~skip_empty:false
    ~send_counts ~sdispls:(exclusive_prefix_sum send_counts) ~recv_counts ~rdispls data out;
  out

(* Alltoallw-style exchange: pays per-peer derived-datatype setup on every
   rank and exchanges with *all* peers, empty or not.  This models why
   lowering gatherv/alltoallv onto alltoallw (as MPL does) is costly and
   limits scalability (paper §II, [9]). *)
let alltoallw comm (dt : 'a Datatype.t) ~(send_counts : int array)
    ~(recv_counts : int array) (data : 'a array) : 'a array =
  let bytes = alltoallv_bytes comm dt ~op:"alltoallw" ~send_counts ~recv_counts in
  let span = enter comm ~op:"alltoallw" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match alltoallw_run comm dt ~send_counts ~recv_counts data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* ------------------------------------------------------------------ *)
(* Reductions *)

(* Analyzer-mode marker: this rank is entering a reduction whose result
   depends on combine order (non-commutative op).  The offline
   happens-before pass flags any such span whose incoming messages have
   concurrent senders — on a real MPI, algorithm or arrival order could
   then change the result.  Gated like the p2p analyzer instants: only
   emitted into stream captures, one branch otherwise. *)
let note_nc_order comm =
  let rt = Comm.runtime comm in
  if Trace.is_streaming rt.Runtime.trace then
    Trace.instant rt.Runtime.trace ~rank:(Comm.world_rank comm) ~cat:"coll"
      ~name:"nc_order" ~a:(Comm.context comm) ~b:(Comm.size comm) ~c:(-1)

(* Reduce [src] into [acc] (same length) at [root]: binomial tree for
   commutative operations; gather + rank-ordered fold for
   non-commutative ones (the order must be rank order).  Other ranks'
   [acc] is scratch afterwards. *)
let reduce_sched x comm dt (op : 'a Reduce_op.t) ~root ~(src : 'a array) ~(acc : 'a array) =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let count = Array.length src in
  if not op.Reduce_op.commutative then begin
    note_nc_order comm;
    let bytes = Datatype.size_of_count dt count in
    let gathered =
      let span = phase x comm ~op:"gather" ~root ~ty:(Datatype.name dt) ~bytes in
      match gather_equal x comm dt ~root src with
      | r -> leave comm span r
      | exception e -> leave_raise comm span e
    in
    if r = root then begin
      Array.blit gathered 0 acc 0 count;
      for s = 1 to n - 1 do
        fold op ~acc ~pos:0 ~from:gathered ~fpos:(s * count) ~count
      done
    end
  end
  else begin
    Array.blit src 0 acc 0 count;
    let vrank = (r - root + n) mod n in
    (* Only even vranks have children, the first at vrank + 1. *)
    let has_child = vrank land 1 = 0 && vrank + 1 < n in
    let scratch = if has_child then scratch_like dt count else [||] in
    let mask = ref 1 in
    let sent = ref false in
    while (not !sent) && !mask < n do
      if vrank land !mask <> 0 then begin
        send x comm dt ~tag:Coll_algo.tag_reduce
          ~dest:(unrotate ~n ~root (vrank - !mask))
          acc ~pos:0 ~count;
        sent := true
      end
      else begin
        if vrank + !mask < n then
          recv_fold x comm dt op ~tag:Coll_algo.tag_reduce
            ~src:(unrotate ~n ~root (vrank + !mask))
            ~scratch acc ~pos:0 ~count;
        mask := !mask lsl 1
      end
    done
  end

let reduce_run comm dt op ~root data =
  if Comm.size comm = 1 then Array.copy data
  else begin
    let acc = scratch_like dt (Array.length data) in
    reduce_sched blocking comm dt op ~root ~src:data ~acc;
    if Comm.rank comm = root then acc else [||]
  end

let reduce comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) ~root (data : 'a array) :
    'a array =
  Comm.check_rank comm root;
  let bytes = Datatype.size_of_count dt (Array.length data) in
  let span = enter comm ~op:"reduce" ~root ~ty:(Datatype.name dt) ~bytes in
  match reduce_run comm dt op ~root data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* The non-power-of-two preamble shared by recursive doubling and
   Rabenseifner (MPICH's rem-rank scheme): with pof2 = 2^floor(log2 p)
   and rem = p - pof2, each of the first 2*rem ranks pairs up — evens
   fold their vector into the odd neighbour and sit out (newrank -1),
   odds continue as newrank r/2; ranks >= 2*rem continue as r - rem.  It
   sends on the [tag] of the algorithm it precedes. *)
let fold_into_pof2 x comm dt op ~tag ~rem ~total ~scratch buf =
  let r = Comm.rank comm in
  if r < 2 * rem then
    if r land 1 = 0 then begin
      send x comm dt ~tag ~dest:(r + 1) buf ~pos:0 ~count:total;
      -1
    end
    else begin
      recv_fold x comm dt op ~tag ~src:(r - 1) ~scratch buf ~pos:0 ~count:total;
      r / 2
    end
  else r - rem

(* The comm rank of pof2 sub-machine rank [nr]. *)
let unfold_rank ~rem nr = if nr < rem then (nr * 2) + 1 else nr + rem

(* Mirror of the preamble: odd ranks of the first 2*rem pairs hold the
   full result and copy it back to their even neighbour. *)
let unfold_from_pof2 x comm dt ~tag ~rem ~total buf =
  let r = Comm.rank comm in
  if r < 2 * rem then
    if r land 1 = 1 then send x comm dt ~tag ~dest:(r - 1) buf ~pos:0 ~count:total
    else recv x comm dt ~tag ~src:(r + 1) buf ~pos:0 ~count:total

(* Recursive-doubling allreduce: log2 p rounds of full-vector exchange,
   in place on [buf] (seeded with the local contribution).
   Latency-optimal; bandwidth n*log p, so for short messages only. *)
let allreduce_rdbl x comm dt op ~total ~scratch buf =
  let n = Comm.size comm in
  let pof2 = Coll_algo.floor_pow2 n in
  let rem = n - pof2 in
  let tag = Coll_algo.tag_allreduce_rdbl in
  let newrank = fold_into_pof2 x comm dt op ~tag ~rem ~total ~scratch buf in
  if newrank >= 0 then begin
    let mask = ref 1 in
    while !mask < pof2 do
      let dst = unfold_rank ~rem (newrank lxor !mask) in
      send x comm dt ~tag ~dest:dst buf ~pos:0 ~count:total;
      recv_fold x comm dt op ~tag ~src:dst ~scratch buf ~pos:0 ~count:total;
      mask := !mask lsl 1
    done
  end;
  unfold_from_pof2 x comm dt ~tag ~rem ~total buf

(* Rabenseifner allreduce: recursive-halving reduce-scatter then
   recursive-doubling allgather over the pof2 sub-machine, in place on a
   seeded [buf].  Bandwidth ~2n per rank instead of the 2-tree lowering's
   2n*log p; the block bookkeeping (send_idx/recv_idx/last_idx walking
   the pof2 block table [table]) follows MPICH's allreduce. *)
let allreduce_rabenseifner x comm dt op ~total ~scratch ~(table : int array) buf =
  let n = Comm.size comm in
  let pof2 = Coll_algo.floor_pow2 n in
  let rem = n - pof2 in
  let tag = Coll_algo.tag_allreduce_rabenseifner in
  let newrank = fold_into_pof2 x comm dt op ~tag ~rem ~total ~scratch buf in
  if newrank >= 0 && pof2 > 1 then begin
    (* Block v of the vector is [table.(v), table.(v+1)); blocks may be
       empty when total < pof2. *)
    let range_count lo hi = table.(hi) - table.(lo) in
    (* Reduce-scatter by recursive halving: each round exchanges half of
       the still-owned block range with the partner and folds the kept
       half.  After log2 pof2 rounds this rank owns one fully reduced
       block. *)
    let send_idx = ref 0 and recv_idx = ref 0 and last_idx = ref pof2 in
    let mask = ref 1 in
    while !mask < pof2 do
      let newdst = newrank lxor !mask in
      let dst = unfold_rank ~rem newdst in
      let half = pof2 / (!mask * 2) in
      let s_lo, s_hi, r_lo, r_hi =
        if newrank < newdst then begin
          send_idx := !recv_idx + half;
          (!send_idx, !last_idx, !recv_idx, !send_idx)
        end
        else begin
          recv_idx := !send_idx + half;
          (!send_idx, !recv_idx, !recv_idx, !last_idx)
        end
      in
      send x comm dt ~tag ~dest:dst buf ~pos:table.(s_lo) ~count:(range_count s_lo s_hi);
      recv_fold x comm dt op ~tag ~src:dst ~scratch buf ~pos:table.(r_lo)
        ~count:(range_count r_lo r_hi);
      send_idx := r_lo;
      recv_idx := r_lo;
      mask := !mask lsl 1;
      if !mask < pof2 then last_idx := r_lo + (pof2 / !mask)
    done;
    (* Allgather by recursive doubling: walk the rounds back, exchanging
       ever larger reduced ranges. *)
    mask := pof2 asr 1;
    while !mask > 0 do
      let newdst = newrank lxor !mask in
      let dst = unfold_rank ~rem newdst in
      let half = pof2 / (!mask * 2) in
      let s_lo, s_hi, r_lo, r_hi =
        if newrank < newdst then begin
          if !mask <> pof2 asr 1 then last_idx := !last_idx + half;
          recv_idx := !send_idx + half;
          (!send_idx, !recv_idx, !recv_idx, !last_idx)
        end
        else begin
          recv_idx := !send_idx - half;
          (!send_idx, !last_idx, !recv_idx, !send_idx)
        end
      in
      send x comm dt ~tag ~dest:dst buf ~pos:table.(s_lo) ~count:(range_count s_lo s_hi);
      recv x comm dt ~tag ~src:dst buf ~pos:table.(r_lo) ~count:(range_count r_lo r_hi);
      if newrank > newdst then send_idx := !recv_idx;
      mask := !mask asr 1
    done
  end;
  unfold_from_pof2 x comm dt ~tag ~rem ~total buf

(* Working buffers of one allreduce with [algo]: the incoming-vector
   scratch and Rabenseifner's pof2 block table. *)
let allreduce_scratch dt algo ~elems =
  match algo with
  | Coll_algo.Recursive_doubling | Coll_algo.Rabenseifner -> scratch_like dt elems
  | _ -> [||]

let allreduce_table comm algo ~elems =
  match algo with
  | Coll_algo.Rabenseifner ->
      even_blocks ~total:elems ~parts:(Coll_algo.floor_pow2 (Comm.size comm))
  | _ -> empty_int

(* Allreduce of [src] into [dst] (which may be [src]).  The reduce+bcast
   reference lowering pins the binomial bcast, so its cost stays the seed
   2-tree lowering whatever bcast would select: it is both the
   order-safe fallback and the benchmark baseline. *)
let allreduce_sched x comm dt op algo ~src ~dst ~scratch ~table =
  let total = Array.length src in
  match algo with
  | Coll_algo.Recursive_doubling ->
      Array.blit src 0 dst 0 total;
      allreduce_rdbl x comm dt op ~total ~scratch dst
  | Coll_algo.Rabenseifner ->
      Array.blit src 0 dst 0 total;
      allreduce_rabenseifner x comm dt op ~total ~scratch ~table dst
  | _ ->
      let ty = Datatype.name dt in
      let bytes = Datatype.size_of_count dt total in
      (let span = phase x comm ~op:"reduce" ~root:0 ~ty ~bytes in
       match reduce_sched x comm dt op ~root:0 ~src ~acc:dst with
       | () -> leave comm span ()
       | exception e -> leave_raise comm span e);
      let bytes = if Comm.rank comm = 0 then bytes else 0 in
      let span = phase x comm ~op:"bcast" ~root:0 ~ty ~bytes in
      let algo_span = dispatch x comm Coll_algo.Bcast Coll_algo.Binomial in
      match bcast_binomial x comm dt ~root:0 ~total dst with
      | _ ->
          leave comm algo_span ();
          leave comm span ()
      | exception e ->
          leave comm algo_span ();
          leave_raise comm span e

let allreduce_run x comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) =
  let elems = Array.length data in
  if Comm.size comm = 1 then Array.copy data
  else begin
    let algo =
      choose comm Coll_algo.Allreduce ~bytes:(Datatype.size_of_count dt elems)
        ~commutative:op.Reduce_op.commutative
    in
    let scratch = allreduce_scratch dt algo ~elems in
    let table = allreduce_table comm algo ~elems in
    let dst = scratch_like dt elems in
    let span = dispatch x comm Coll_algo.Allreduce algo in
    match allreduce_sched x comm dt op algo ~src:data ~dst ~scratch ~table with
    | () -> leave comm span dst
    | exception e -> leave_raise comm span e
  end

let allreduce comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) : 'a array =
  let bytes = Datatype.size_of_count dt (Array.length data) in
  let span = enter comm ~op:"allreduce" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match allreduce_run blocking comm dt op data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Inclusive prefix (Hillis-Steele): O(log p) rounds, order-preserving, so
   safe for non-commutative operations. *)
let scan_run comm dt op data =
  let len = Array.length data in
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let acc = Array.copy data in
  (* One scratch buffer for every round's incoming vector: the hot loop
     neither allocates nor copies beyond the in-place fold. *)
  let scratch = scratch_like dt len in
  let d = ref 1 in
  while !d < n do
    if r + !d < n then
      send blocking comm dt ~tag:Coll_algo.tag_scan ~dest:(r + !d) acc ~pos:0
        ~count:len;
    if r - !d >= 0 then begin
      recv blocking comm dt ~tag:Coll_algo.tag_scan ~src:(r - !d) scratch ~pos:0
        ~count:len;
      (* [scratch] covers ranks before ours: combine on the left,
         writing the result straight into [acc]. *)
      for i = 0 to len - 1 do
        acc.(i) <- Reduce_op.apply op scratch.(i) acc.(i)
      done
    end;
    d := !d * 2
  done;
  acc

let scan comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) : 'a array =
  let len = Array.length data in
  let bytes = Datatype.size_of_count dt len in
  let span = enter comm ~op:"scan" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match scan_run comm dt op data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Exclusive prefix: rank 0 receives [None] (MPI leaves it undefined). *)
let exscan_run comm dt op data =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let inclusive = scan comm dt op data in
  (* Shift the inclusive result one rank to the right. *)
  if r + 1 < n then
    send blocking comm dt ~tag:Coll_algo.tag_exscan ~dest:(r + 1) inclusive ~pos:0
      ~count:(Array.length inclusive);
  if r = 0 then None
  else Some (recv_dyn blocking comm dt ~tag:Coll_algo.tag_exscan ~src:(r - 1))

let exscan comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) :
    'a array option =
  let bytes = Datatype.size_of_count dt (Array.length data) in
  let span = enter comm ~op:"exscan" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match exscan_run comm dt op data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Single-element conveniences used heavily by applications. *)
let allreduce_single comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (x : 'a) : 'a =
  (allreduce comm dt op [| x |]).(0)

let scan_single comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (x : 'a) : 'a =
  (scan comm dt op [| x |]).(0)

let exscan_single comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (x : 'a) : 'a option =
  Option.map (fun a -> a.(0)) (exscan comm dt op [| x |])

(* ------------------------------------------------------------------ *)
(* Neighborhood collectives (static graph topologies, §V-A) *)

let topology_exn comm ~op =
  match Comm.topology comm with
  | Some t -> t
  | None -> Errdefs.usage_error "%s: communicator has no graph topology" op

(* Send [data] to every out-neighbor; receive one block per in-neighbor,
   returned in source order. *)
let neighbor_allgather_run comm dt (topo : Comm.topology) data =
  Array.iter
    (fun dest ->
      P2p.send_range comm dt ~dest ~tag:Coll_algo.tag_neighbor_allgather data ~pos:0
        ~count:(Array.length data))
    topo.Comm.destinations;
  Array.map
    (fun src -> P2p.recv_fresh comm dt ~source:src ~tag:Coll_algo.tag_neighbor_allgather)
    topo.Comm.sources

let neighbor_allgather comm (dt : 'a Datatype.t) (data : 'a array) : 'a array array =
  let topo = topology_exn comm ~op:"neighbor_allgather" in
  let bytes = Datatype.size_of_count dt (Array.length data) in
  let span = enter comm ~op:"neighbor_allgather" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match neighbor_allgather_run comm dt topo data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Variable-size neighbor exchange: block i of [data] goes to
   destinations.(i); the result concatenates one block per source, with
   [recv_counts] in source order. *)
let neighbor_alltoallv_run comm dt (topo : Comm.topology) ~send_counts ~recv_counts data =
  let sdispls = exclusive_prefix_sum send_counts in
  Array.iteri
    (fun i dest ->
      if send_counts.(i) > 0 then
        P2p.send_range comm dt ~dest ~tag:Coll_algo.tag_neighbor_alltoallv data
          ~pos:sdispls.(i) ~count:send_counts.(i))
    topo.Comm.destinations;
  let table = blocks recv_counts in
  let out = scratch_like dt table.(Array.length topo.Comm.sources) in
  Array.iteri
    (fun i src ->
      if recv_counts.(i) > 0 then
        recv blocking comm dt ~tag:Coll_algo.tag_neighbor_alltoallv ~src out ~pos:table.(i)
          ~count:recv_counts.(i))
    topo.Comm.sources;
  out

let neighbor_alltoallv comm (dt : 'a Datatype.t) ~(send_counts : int array)
    ~(recv_counts : int array) (data : 'a array) : 'a array =
  let topo = topology_exn comm ~op:"neighbor_alltoallv" in
  let out_deg = Array.length topo.Comm.destinations in
  let in_deg = Array.length topo.Comm.sources in
  if Array.length send_counts <> out_deg then
    Errdefs.usage_error "neighbor_alltoallv: send_counts length %d, expected out-degree %d"
      (Array.length send_counts) out_deg;
  if Array.length recv_counts <> in_deg then
    Errdefs.usage_error "neighbor_alltoallv: recv_counts length %d, expected in-degree %d"
      (Array.length recv_counts) in_deg;
  let bytes = Datatype.size_of_count dt (Array.fold_left ( + ) 0 send_counts) in
  let span = enter comm ~op:"neighbor_alltoallv" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match neighbor_alltoallv_run comm dt topo ~send_counts ~recv_counts data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* ------------------------------------------------------------------ *)
(* Reduce-scatter: elementwise reduction whose result is scattered in
   blocks (MPI_Reduce_scatter_block / MPI_Reduce_scatter). *)

(* Peak per-rank working-buffer size of a reduce_scatter, in elements: a
   max-gauge, so the benchmark gate can show the pairwise algorithm stays
   O(n) where the reference lowering materializes O(p*n) at the root. *)
let note_rs_scratch comm elems =
  let g =
    Stats.gauge (Comm.runtime comm).Runtime.stats "coll.reduce_scatter.peak_scratch_elems"
  in
  if float_of_int elems > Stats.value g then Stats.set g (float_of_int elems)

(* Pairwise exchange: p-1 rounds; round s sends the block destined to
   rank r+s and folds the block received from rank r-s into [acc].  Each
   rank only ever materializes its own block plus one incoming block —
   O(n/p) where the reference lowering needs the whole O(n) vector at the
   root.  Commutative operators only (blocks are folded in arrival
   order). *)
let reduce_scatter_pairwise x comm dt op ~(table : int array) ~src ~acc ~scratch =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let mine = block_count table r in
  Array.blit src table.(r) acc 0 mine;
  note_rs_scratch comm (2 * mine);
  for s = 1 to n - 1 do
    let dest = (r + s) mod n in
    send x comm dt ~tag:Coll_algo.tag_reduce_scatter_pairwise ~dest src ~pos:table.(dest)
      ~count:(block_count table dest);
    recv_fold x comm dt op ~tag:Coll_algo.tag_reduce_scatter_pairwise
      ~src:((r - s + n) mod n) ~scratch acc ~pos:0 ~count:mine
  done

(* Reduce-scatter of [src] by block table [table] with [algo]; returns
   this rank's block: [acc] for the pairwise exchange, a fresh array from
   the reference lowering, reduce to rank 0 then scatterv ([scatterv]
   false: the uniform scatter of reduce_scatter_block). *)
let reduce_scatter_sched x comm dt op algo ~scatterv ~(table : int array) ~src ~acc
    ~scratch =
  match algo with
  | Coll_algo.Pairwise ->
      reduce_scatter_pairwise x comm dt op ~table ~src ~acc ~scratch;
      acc
  | _ ->
      let total = table.(Comm.size comm) in
      let root_here = Comm.rank comm = 0 in
      if root_here then note_rs_scratch comm total;
      let ty = Datatype.name dt in
      let reduced = scratch_like dt total in
      (let bytes = Datatype.size_of_count dt total in
       let span = phase x comm ~op:"reduce" ~root:0 ~ty ~bytes in
       match reduce_sched x comm dt op ~root:0 ~src ~acc:reduced with
       | () -> leave comm span ()
       | exception e -> leave_raise comm span e);
      let op = if scatterv then "scatterv" else "scatter" in
      let span = phase x comm ~op ~root:0 ~ty ~bytes:0 in
      if scatterv then charge_dense_scan comm;
      let table = if root_here then table else empty_int in
      match scatter_sched x comm dt ~root:0 ~table reduced with
      | r -> leave comm span r
      | exception e -> leave_raise comm span e

(* The pairwise exchange's accumulator and scratch block. *)
let reduce_scatter_buffers dt algo ~mine =
  match algo with
  | Coll_algo.Pairwise -> (scratch_like dt mine, scratch_like dt mine)
  | _ -> ([||], [||])

let reduce_scatter_run x comm dt op ~scatterv ~(table : int array) data =
  let n = Comm.size comm in
  if n = 1 then Array.copy data
  else begin
    let total = table.(n) in
    let algo =
      choose comm Coll_algo.Reduce_scatter ~bytes:(Datatype.size_of_count dt total)
        ~commutative:op.Reduce_op.commutative
    in
    let mine = block_count table (Comm.rank comm) in
    let acc, scratch = reduce_scatter_buffers dt algo ~mine in
    let span = dispatch x comm Coll_algo.Reduce_scatter algo in
    match
      reduce_scatter_sched x comm dt op algo ~scatterv ~table ~src:data ~acc ~scratch
    with
    | r -> leave comm span r
    | exception e -> leave_raise comm span e
  end

(* Equal block sizes: data has p * count elements; rank r receives the
   reduced block r. *)
let reduce_scatter_block comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    (data : 'a array) : 'a array =
  let n = Comm.size comm in
  let total = Array.length data in
  if total mod n <> 0 then
    Errdefs.usage_error "reduce_scatter_block: data length %d not divisible by %d" total n;
  let bytes = Datatype.size_of_count dt total in
  let span =
    enter comm ~op:"reduce_scatter_block" ~root:(-1) ~ty:(Datatype.name dt) ~bytes
  in
  let table = even_blocks ~total ~parts:n in
  match reduce_scatter_run blocking comm dt op ~scatterv:false ~table data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* Per-rank block sizes: [recv_counts.(r)] elements of the reduced vector
   go to rank r.  Validates the counts and returns their block table. *)
let reduce_scatter_table comm ~op ~recv_counts ~len =
  let n = Comm.size comm in
  if Array.length recv_counts <> n then
    Errdefs.usage_error "%s: recv_counts must have length %d" op n;
  let table = blocks recv_counts in
  if len <> table.(n) then
    Errdefs.usage_error "%s: data length %d does not match counts sum %d" op len table.(n);
  table

let reduce_scatter comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    ~(recv_counts : int array) (data : 'a array) : 'a array =
  let len = Array.length data in
  let table = reduce_scatter_table comm ~op:"reduce_scatter" ~recv_counts ~len in
  let bytes = Datatype.size_of_count dt len in
  let span = enter comm ~op:"reduce_scatter" ~root:(-1) ~ty:(Datatype.name dt) ~bytes in
  match reduce_scatter_run blocking comm dt op ~scatterv:true ~table data with
  | r -> leave comm span r
  | exception e -> leave_raise comm span e

(* ------------------------------------------------------------------ *)
(* Persistent collectives (MPI-4 MPI_Allreduce_init etc.): everything the
   ad-hoc path recomputes per call is frozen at init.  [choose] is a pure
   function of inputs that only change between runs, so the frozen
   algorithm (and its [coll.algo.*] counter) is exactly what each ad-hoc
   call would pick.  Returns its counter's name and the algorithm, with a
   writer pre-warmed for the largest per-round [payload]. *)
let freeze comm op ~bytes ~commutative ~payload =
  Runtime.preheat_writer (Comm.runtime comm) (Comm.world_rank comm) ~capacity:(max 8 payload);
  let algo = choose comm op ~bytes ~commutative in
  (Some (Coll_algo.counter_name op algo), algo)

(* Persistent allreduce: reduces [src] into [dst] each cycle.  Buffers
   are fixed at init per MPI persistent semantics; [src == dst] works
   (in-place). *)
let allreduce_init comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) ~(src : 'a array)
    ~(dst : 'a array) : Request.t =
  let ty = Datatype.name dt in
  prologue comm ~op:"allreduce_init" ~root:(-1) ~ty;
  let elems = Array.length src in
  if Array.length dst <> elems then
    Errdefs.usage_error "allreduce_init: src has %d elements but dst has %d" elems
      (Array.length dst);
  let bytes = Datatype.size_of_count dt elems in
  record comm ~op:"allreduce_init" ~bytes;
  let persistent = schedule comm ~op:"allreduce" ~root:(-1) ~ty ~bytes ~persistent:true in
  if Comm.size comm = 1 then persistent ~counter:None (fun _ -> Array.blit src 0 dst 0 elems)
  else begin
    let counter, algo =
      freeze comm Coll_algo.Allreduce ~bytes ~commutative:op.Reduce_op.commutative
        ~payload:bytes
    in
    let scratch = allreduce_scratch dt algo ~elems in
    let table = allreduce_table comm algo ~elems in
    persistent ~counter (fun x ->
        allreduce_sched x comm dt op algo ~src ~dst ~scratch ~table)
  end

(* Persistent bcast.  Unlike the ad-hoc binding (payload at the root
   only), the buffer argument exists on every rank — MPI-style — so the
   element count is known everywhere at init and no count rendezvous is
   needed; size-keyed selection still matches the ad-hoc choice because
   both key on the same byte total. *)
let bcast_init comm (dt : 'a Datatype.t) ~root (buf : 'a array) : Request.t =
  let ty = Datatype.name dt in
  prologue comm ~op:"bcast_init" ~root ~ty;
  Comm.check_rank comm root;
  let total = Array.length buf in
  let bytes = Datatype.size_of_count dt total in
  let rbytes = if Comm.rank comm = root then bytes else 0 in
  record comm ~op:"bcast_init" ~bytes:rbytes;
  let persistent = schedule comm ~op:"bcast" ~root ~ty ~bytes:rbytes ~persistent:true in
  let n = Comm.size comm in
  if n = 1 then persistent ~counter:None ignore
  else
    match freeze comm Coll_algo.Bcast ~bytes ~commutative:true ~payload:bytes with
    | counter, Coll_algo.Scatter_allgather ->
        let table = even_blocks ~total ~parts:n in
        persistent ~counter (fun x -> bcast_scatter_ring x comm dt ~root ~table buf)
    | counter, _ ->
        persistent ~counter (fun x -> ignore (bcast_binomial x comm dt ~root ~total buf))

(* Persistent reduce_scatter: reduces [src] and scatters block r into
   [dst] (whose length must be [recv_counts.(r)]). *)
let reduce_scatter_init comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    ~(recv_counts : int array) ~(src : 'a array) ~(dst : 'a array) : Request.t =
  let ty = Datatype.name dt in
  prologue comm ~op:"reduce_scatter_init" ~root:(-1) ~ty;
  let n = Comm.size comm in
  let len = Array.length src in
  let table = reduce_scatter_table comm ~op:"reduce_scatter_init" ~recv_counts ~len in
  let mine = recv_counts.(Comm.rank comm) in
  if Array.length dst <> mine then
    Errdefs.usage_error "reduce_scatter_init: dst length %d but this rank receives %d"
      (Array.length dst) mine;
  let bytes = Datatype.size_of_count dt len in
  record comm ~op:"reduce_scatter_init" ~bytes;
  let persistent =
    schedule comm ~op:"reduce_scatter" ~root:(-1) ~ty ~bytes ~persistent:true
  in
  if n = 1 then persistent ~counter:None (fun _ -> Array.blit src 0 dst 0 len)
  else begin
    let counter, algo =
      freeze comm Coll_algo.Reduce_scatter ~bytes ~commutative:op.Reduce_op.commutative
        ~payload:(Datatype.size_of_count dt (Array.fold_left max 0 recv_counts))
    in
    let _, scratch = reduce_scatter_buffers dt algo ~mine in
    persistent ~counter (fun x ->
        let part =
          reduce_scatter_sched x comm dt op algo ~scatterv:true ~table ~src ~acc:dst
            ~scratch
        in
        if part != dst then Array.blit part 0 dst 0 mine)
  end

(* ------------------------------------------------------------------ *)
(* Non-blocking collectives: the blocking call's schedule, posted on the
   nonblocking driver.  The request advances it inside test/wait; the
   result cell is filled at completion. *)

let ibcast comm (dt : 'a Datatype.t) ~root (data : 'a array option) :
    Request.t * 'a array option ref =
  let bytes = bcast_bytes comm dt ~root data in
  post comm ~op:"ibcast" ~root ~ty:(Datatype.name dt) ~bytes (fun x ->
      bcast_run x comm dt ~root data)

let iallreduce comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) :
    Request.t * 'a array option ref =
  let bytes = Datatype.size_of_count dt (Array.length data) in
  post comm ~op:"iallreduce" ~root:(-1) ~ty:(Datatype.name dt) ~bytes (fun x ->
      allreduce_run x comm dt op data)

let ialltoallv comm (dt : 'a Datatype.t) ~send_counts ~send_displs ~recv_counts
    ~recv_displs (data : 'a array) : Request.t * 'a array option ref =
  let bytes = alltoallv_bytes comm dt ~op:"ialltoallv" ~send_counts ~recv_counts in
  post comm ~op:"ialltoallv" ~root:(-1) ~ty:(Datatype.name dt) ~bytes (fun x ->
      alltoallv_run x comm dt ~send_counts ~send_displs ~recv_counts ~recv_displs data)

let ireduce_scatter comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) ~recv_counts
    (data : 'a array) : Request.t * 'a array option ref =
  let len = Array.length data in
  let table = reduce_scatter_table comm ~op:"ireduce_scatter" ~recv_counts ~len in
  post comm ~op:"ireduce_scatter" ~root:(-1) ~ty:(Datatype.name dt)
    ~bytes:(Datatype.size_of_count dt len) (fun x ->
      reduce_scatter_run x comm dt op ~scatterv:true ~table data)
