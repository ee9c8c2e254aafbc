(* Blocking collective operations.

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
     for long messages;
   - [allgatherv]: ring, p-1 rounds (bandwidth-optimal);
   - [reduce_scatter]/[reduce_scatter_block]: pairwise exchange with an
     O(n) peak buffer for commutative operations; reduce + scatter(v)
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
   per call from (payload bytes, communicator size, commutativity)
   against the thresholds in [Net_model.tuning]; the choice is counted in
   a [coll.algo.<op>.<algo>] stats counter and emitted as a nested trace
   span, and can be pinned via [MPISIM_COLL_ALGO] / [Coll_algo.set_overrides].

   Every collective starts with [Comm.check_collective], which raises
   ERR_REVOKED / ERR_PROC_FAILED per ULFM semantics and, with the {!Check}
   sanitizer on, feeds its collective call-order check. *)

(* Internal tags, one per operation. *)
let tag_barrier = P2p.internal_tag 0

let tag_bcast = P2p.internal_tag 1

let tag_gather = P2p.internal_tag 2

let tag_scatter = P2p.internal_tag 3

let tag_allgather = P2p.internal_tag 4

let tag_allgatherv = P2p.internal_tag 5

let tag_alltoall = P2p.internal_tag 6

let tag_alltoallv = P2p.internal_tag 7

let tag_alltoallw = P2p.internal_tag 8

let tag_reduce = P2p.internal_tag 9

let tag_scan = P2p.internal_tag 10

let tag_neighbor = P2p.internal_tag 11

let tag_allreduce = P2p.internal_tag 12

let tag_reduce_scatter = P2p.internal_tag 13

let tag_bcast_scatter = P2p.internal_tag 14

let tag_bcast_ring = P2p.internal_tag 15

let empty_int : int array = [||]

(* [root] is the comm-rank root (-1 for unrooted collectives) and [ty] the
   element-type name ("" for untyped ops): plain immediates, so the
   sanitizer-off path stays allocation-free. *)
let prologue comm ~op ~root ~ty =
  Runtime.check_alive (Comm.runtime comm) (Comm.world_rank comm);
  Comm.check_collective comm ~op ~root ~ty

(* Trace span around one collective on the caller's virtual timeline.
   Each public operation below is shadowed by a [traced] wrapper right
   after its definition, so collectives lowered onto earlier ones
   (allreduce onto reduce + bcast, reduce_scatter onto reduce + scatterv)
   show up as nested spans. *)
let traced comm ~op f =
  Runtime.with_span (Comm.runtime comm) (Comm.world_rank comm) ~cat:"coll" ~name:op f

let record comm ~op ~bytes = Runtime.record (Comm.runtime comm) ~op ~bytes

(* The algorithm selected for this call, visible to run reports: bump the
   [coll.algo.<op>.<algo>] counter and nest an [<op>.<algo>] span inside
   the collective's own span.  Both names are preallocated in Coll_algo,
   so with tracing off this costs one counter increment. *)
let dispatch comm alg_op algo f =
  let rt = Comm.runtime comm in
  Stats.incr (Stats.counter rt.Runtime.stats (Coll_algo.counter_name alg_op algo));
  let cm = rt.Runtime.comm_matrix in
  if Comm_matrix.enabled cm then begin
    (* Attribute every message the algorithm body injects to this
       algorithm in the communication matrix.  Save/restore (rather than
       reset to "p2p") so lowered collectives attribute to the innermost
       algorithm actually moving the bytes. *)
    let me = Comm.world_rank comm in
    let prev = Comm_matrix.label cm me in
    Comm_matrix.set_label cm me (Coll_algo.span_name alg_op algo);
    Fun.protect
      ~finally:(fun () -> Comm_matrix.set_label cm me prev)
      (fun () ->
        Runtime.with_span rt me ~cat:"coll" ~name:(Coll_algo.span_name alg_op algo) f)
  end
  else
    Runtime.with_span rt (Comm.world_rank comm) ~cat:"coll"
      ~name:(Coll_algo.span_name alg_op algo) f

let choose comm alg_op ~bytes ~commutative ~elems =
  Coll_algo.choose (Comm.runtime comm).Runtime.model alg_op ~bytes ~size:(Comm.size comm)
    ~commutative ~elems

(* Charge the O(p) cost of scanning per-rank count/displacement arrays in
   dense vector collectives. *)
let charge_dense_scan comm =
  let rt = Comm.runtime comm in
  Runtime.advance_clock rt (Comm.world_rank comm)
    (float_of_int (Comm.size comm) *. rt.Runtime.model.Net_model.dense_scan_byte)

let check_root comm root = Comm.check_rank comm root

(* ------------------------------------------------------------------ *)
(* Barrier: dissemination *)

let barrier comm =
  prologue comm ~op:"barrier" ~root:(-1) ~ty:"";
  record comm ~op:"barrier" ~bytes:0;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let k = ref 1 in
  while !k < n do
    let dest = (r + !k) mod n in
    let src = (r - !k + n) mod n in
    P2p.send_range comm Datatype.int ~dest ~tag:tag_barrier empty_int ~pos:0 ~count:0;
    let (_ : int array * Status.t) = P2p.recv comm Datatype.int ~source:src ~tag:tag_barrier () in
    k := !k * 2
  done

let barrier comm = traced comm ~op:"barrier" (fun () -> barrier comm)

(* Non-blocking barrier via shared rendezvous.  Completion time is the
   latest entry clock plus a modelled dissemination term. *)
let ibarrier comm =
  prologue comm ~op:"ibarrier" ~root:(-1) ~ty:"";
  record comm ~op:"ibarrier" ~bytes:0;
  let rt = Comm.runtime comm in
  let n = Comm.size comm in
  let me = Comm.world_rank comm in
  let shared = comm.Comm.shared in
  let gen = comm.Comm.my_ibarrier_gen in
  comm.Comm.my_ibarrier_gen <- gen + 1;
  (* The rendezvous cell is shared by every rank of the communicator. *)
  let state =
    match Hashtbl.find_opt shared.Comm.ibarriers gen with
    | Some s -> s
    | None ->
        let s = { Comm.ib_target = n; ib_entered = 0; ib_max_clock = 0.; ib_finalized = 0 } in
        Hashtbl.replace shared.Comm.ibarriers gen s;
        s
  in
  state.Comm.ib_entered <- state.Comm.ib_entered + 1;
  state.Comm.ib_max_clock <- Float.max state.Comm.ib_max_clock (Runtime.clock rt me);
  Runtime.bump_progress rt;
  let rounds = if n <= 1 then 0 else Coll_algo.ceil_log2 n in
  let dissemination_cost =
    float_of_int rounds
    *. (rt.Runtime.model.Net_model.latency +. rt.Runtime.model.Net_model.send_overhead)
  in
  let req =
    Request.make
      ~ready:(fun () -> state.Comm.ib_entered >= state.Comm.ib_target)
      ~finalize:(fun () ->
        Runtime.sync_clock rt me (state.Comm.ib_max_clock +. dissemination_cost);
        state.Comm.ib_finalized <- state.Comm.ib_finalized + 1;
        if state.Comm.ib_finalized >= state.Comm.ib_target then
          Hashtbl.remove shared.Comm.ibarriers gen;
        Status.make ~source:(Comm.rank comm) ~tag:0 ~count:0 ~bytes:0)
      ~describe:(fun () -> Printf.sprintf "ibarrier gen %d" gen)
  in
  if Check.enabled rt.Runtime.check then
    Check.track_request rt.Runtime.check ~rank:me ~kind:"ibarrier" req;
  req

(* ------------------------------------------------------------------ *)
(* Broadcast: binomial tree, or binomial scatter + ring allgather for
   long messages. *)

let bcast_binomial comm (dt : 'a Datatype.t) ~root (data : 'a array option) : 'a array =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let vrank = (r - root + n) mod n in
  let real v = (v + root) mod n in
  let buf = ref (match data with Some d when r = root -> d | _ -> [||]) in
  if n > 1 then begin
    (* Receive phase: find the lowest set bit of vrank. *)
    let mask = ref 1 in
    if vrank <> 0 then begin
      while vrank land !mask = 0 do
        mask := !mask lsl 1
      done;
      let src = real (vrank - !mask) in
      let d, _ = P2p.recv comm dt ~source:src ~tag:tag_bcast () in
      buf := d
    end
    else begin
      while !mask < n do
        mask := !mask lsl 1
      done
    end;
    (* Send phase: relay to children. *)
    mask := !mask lsr 1;
    while !mask > 0 do
      if vrank + !mask < n then begin
        let dest = real (vrank + !mask) in
        P2p.send_range comm dt ~dest ~tag:tag_bcast !buf ~pos:0 ~count:(Array.length !buf)
      end;
      mask := !mask lsr 1
    done
  end;
  !buf

(* Binomial-tree bcast into a caller-provided buffer holding the payload
   at the root: receives land via [recv_into], so a cycle of a persistent
   bcast allocates no result arrays.  [total] is the element count on
   every rank (persistent requests know it from the init-time buffer). *)
let bcast_binomial_into comm (dt : 'a Datatype.t) ~root ~total (buf : 'a array) : unit =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let vrank = (r - root + n) mod n in
  let real v = (v + root) mod n in
  if n > 1 then begin
    let mask = ref 1 in
    if vrank <> 0 then begin
      while vrank land !mask = 0 do
        mask := !mask lsl 1
      done;
      let src = real (vrank - !mask) in
      let st = P2p.recv_into comm dt ~source:src ~tag:tag_bcast ~pos:0 ~maxcount:total buf in
      if Status.count st <> total then
        Comm.error comm Errdefs.Err_count "bcast: expected %d elements, got %d" total
          (Status.count st)
    end
    else begin
      while !mask < n do
        mask := !mask lsl 1
      done
    end;
    mask := !mask lsr 1;
    while !mask > 0 do
      if vrank + !mask < n then
        P2p.send_range comm dt ~dest:(real (vrank + !mask)) ~tag:tag_bcast buf ~pos:0
          ~count:total;
      mask := !mask lsr 1
    done
  end

(* The per-block table of the scatter+allgather bcast: block v of the
   vector lives at [disps.(v), disps.(v+1)). *)
let bcast_block_table comm ~total =
  let n = Comm.size comm in
  let cnts = Array.make n (total / n) in
  for i = 0 to (total mod n) - 1 do
    cnts.(i) <- cnts.(i) + 1
  done;
  let disps = Array.make (n + 1) 0 in
  for i = 1 to n do
    disps.(i) <- disps.(i - 1) + cnts.(i - 1)
  done;
  (cnts, disps)

(* Long-message bcast (van de Geijn): binomial scatter of p blocks from
   the root, then a ring allgather of the blocks.  2n bytes per rank on
   the wire instead of the binomial tree's n*log p.  The core takes the
   full-size buffer on every rank and the precomputed block table, so
   persistent cycles reuse all three. *)
let bcast_scatter_allgather_core comm (dt : 'a Datatype.t) ~root ~(cnts : int array)
    ~(disps : int array) (buf : 'a array) : unit =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let vrank = (r - root + n) mod n in
  let real v = (v + root) mod n in
  (* Scatter phase over vranks: a node entered with mask m holds blocks
     [vrank, vrank + min m (n - vrank)) and forwards the upper half to the
     child at vrank + m/2 as m halves. *)
  let mask = ref 1 in
  if vrank <> 0 then begin
    while vrank land !mask = 0 do
      mask := !mask lsl 1
    done;
    let src = real (vrank - !mask) in
    let extent = Stdlib.min !mask (n - vrank) in
    let count = disps.(vrank + extent) - disps.(vrank) in
    let st =
      P2p.recv_into comm dt ~source:src ~tag:tag_bcast_scatter ~pos:disps.(vrank)
        ~maxcount:count buf
    in
    if Status.count st <> count then
      Comm.error comm Errdefs.Err_count "bcast: expected %d scattered elements, got %d"
        count (Status.count st)
  end
  else begin
    while !mask < n do
      mask := !mask lsl 1
    done
  end;
  mask := !mask lsr 1;
  while !mask > 0 do
    if vrank + !mask < n then begin
      let child = vrank + !mask in
      let extent = Stdlib.min !mask (n - child) in
      P2p.send_range comm dt ~dest:(real child) ~tag:tag_bcast_scatter buf
        ~pos:disps.(child)
        ~count:(disps.(child + extent) - disps.(child))
    end;
    mask := !mask lsr 1
  done;
  (* Ring allgather of the n blocks, in vrank space (which is the
     absolute ring shifted by [root]). *)
  let right = real ((vrank + 1) mod n) in
  let left = real ((vrank - 1 + n) mod n) in
  for s = 0 to n - 2 do
    let send_block = (vrank - s + n) mod n in
    let recv_block = (send_block - 1 + n) mod n in
    P2p.send_range comm dt ~dest:right ~tag:tag_bcast_ring buf ~pos:disps.(send_block)
      ~count:cnts.(send_block);
    let st =
      P2p.recv_into comm dt ~source:left ~tag:tag_bcast_ring ~pos:disps.(recv_block)
        ~maxcount:cnts.(recv_block) buf
    in
    if Status.count st <> cnts.(recv_block) then
      Comm.error comm Errdefs.Err_count "bcast: expected %d ring elements, got %d"
        cnts.(recv_block) (Status.count st)
  done

let bcast_scatter_allgather comm (dt : 'a Datatype.t) ~root ~total
    (data : 'a array option) : 'a array =
  let cnts, disps = bcast_block_table comm ~total in
  let buf =
    match data with
    | Some d when Comm.rank comm = root -> d
    | _ -> if total = 0 then [||] else Array.make total (Datatype.zero_elem dt)
  in
  bcast_scatter_allgather_core comm dt ~root ~cnts ~disps buf;
  buf

(* In MPI the element count of a bcast is an argument on every rank; our
   binding takes the payload at the root only, so size-keyed algorithm
   selection needs the root to publish the count through the shared
   communicator record first (simulator state, not a modelled message).
   Keyed by a per-rank generation counter — collective ordering makes the
   generations agree across ranks.  The poll also wakes on revocation or
   a member death so ULFM error semantics are preserved. *)
let bcast_count_rendezvous comm ~root ~count_at_root =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let shared = comm.Comm.shared in
  let gen = comm.Comm.my_bcast_gen in
  comm.Comm.my_bcast_gen <- gen + 1;
  let rt = Comm.runtime comm in
  if r = root then begin
    Hashtbl.replace shared.Comm.bcast_counts gen
      { Comm.bc_count = count_at_root; bc_consumed = 0 };
    Runtime.bump_progress rt
  end
  else begin
    let root_world = Comm.world_of_rank comm root in
    if not (Hashtbl.mem shared.Comm.bcast_counts gen) then
      Scheduler.park
        ~describe:(fun () -> Printf.sprintf "bcast count rendezvous gen %d" gen)
        ~poll:(fun () ->
          if
            Hashtbl.mem shared.Comm.bcast_counts gen
            || Comm.revocation_reached comm ~world:root_world
            || Comm.any_member_failed comm
          then Some ()
          else None)
  end;
  match Hashtbl.find_opt shared.Comm.bcast_counts gen with
  | Some m ->
      m.Comm.bc_consumed <- m.Comm.bc_consumed + 1;
      if m.Comm.bc_consumed >= n then Hashtbl.remove shared.Comm.bcast_counts gen;
      m.Comm.bc_count
  | None ->
      if Comm.revoked_flag comm then
        Comm.error comm Errdefs.Err_revoked "bcast: communicator revoked";
      Comm.error comm Errdefs.Err_proc_failed "bcast: root failed before publishing count"

(* [pin] bypasses selection (and with it the count rendezvous): used by
   the reduce+bcast allreduce lowering, whose baseline cost must be the
   seed binomial tree regardless of tuning. *)
let bcast_gen ~pin comm (dt : 'a Datatype.t) ~root (data : 'a array option) : 'a array =
  prologue comm ~op:"bcast" ~root ~ty:(Datatype.name dt);
  check_root comm root;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  if r = root && data = None then Errdefs.usage_error "bcast: root must provide data";
  record comm ~op:"bcast"
    ~bytes:
      (if r = root then
         Datatype.size_of_count dt
           (match data with Some d -> Array.length d | None -> 0)
       else 0);
  if n = 1 then (match data with Some d -> d | None -> [||])
  else begin
    let algo, total =
      match pin with
      | Some a -> (a, -1)
      | None -> (
          match Coll_algo.override_for Coll_algo.Bcast with
          | Some Coll_algo.Binomial -> (Coll_algo.Binomial, -1)
          | _ ->
              let count_at_root =
                match data with Some d when r = root -> Array.length d | _ -> 0
              in
              let total = bcast_count_rendezvous comm ~root ~count_at_root in
              let bytes = Datatype.size_of_count dt total in
              (choose comm Coll_algo.Bcast ~bytes ~commutative:true ~elems:total, total))
    in
    dispatch comm Coll_algo.Bcast algo (fun () ->
        match algo with
        | Coll_algo.Scatter_allgather -> bcast_scatter_allgather comm dt ~root ~total data
        | _ -> bcast_binomial comm dt ~root data)
  end

let bcast comm dt ~root data = traced comm ~op:"bcast" (fun () -> bcast_gen ~pin:None comm dt ~root data)

(* ------------------------------------------------------------------ *)
(* Gather / Scatter (rooted, direct exchange) *)

let gatherv comm (dt : 'a Datatype.t) ~root ?recv_counts (data : 'a array) : 'a array =
  prologue comm ~op:"gatherv" ~root ~ty:(Datatype.name dt);
  check_root comm root;
  charge_dense_scan comm;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  record comm ~op:"gatherv" ~bytes:(Datatype.size_of_count dt (Array.length data));
  if r <> root then begin
    P2p.send_range comm dt ~dest:root ~tag:tag_gather data ~pos:0
      ~count:(Array.length data);
    [||]
  end
  else begin
    let counts =
      match recv_counts with
      | Some c ->
          if Array.length c <> n then
            Errdefs.usage_error "gatherv: recv_counts has length %d, expected %d"
              (Array.length c) n;
          c
      | None -> Errdefs.usage_error "gatherv: root must provide recv_counts"
    in
    if counts.(root) <> Array.length data then
      Errdefs.usage_error "gatherv: own count %d does not match data length %d"
        counts.(root) (Array.length data);
    let displs = Array.make n 0 in
    for i = 1 to n - 1 do
      displs.(i) <- displs.(i - 1) + counts.(i - 1)
    done;
    let total = displs.(n - 1) + counts.(n - 1) in
    let out = if total = 0 then [||] else Array.make total (Datatype.zero_elem dt) in
    Array.blit data 0 out displs.(root) counts.(root);
    (* Receive from every source, zero-count contributions included:
       skipping them would leave stale messages that corrupt the next
       collective on the same (source, tag) pair. *)
    for src = 0 to n - 1 do
      if src <> root then begin
        let st =
          P2p.recv_into comm dt ~source:src ~tag:tag_gather ~pos:displs.(src)
            ~maxcount:counts.(src) out
        in
        if Status.count st <> counts.(src) then
          Comm.error comm Errdefs.Err_count
            "gatherv: rank %d sent %d elements, expected %d" src (Status.count st)
            counts.(src)
      end
    done;
    out
  end

let gatherv comm dt ~root ?recv_counts data =
  traced comm ~op:"gatherv" (fun () -> gatherv comm dt ~root ?recv_counts data)

let gather comm (dt : 'a Datatype.t) ~root (data : 'a array) : 'a array =
  prologue comm ~op:"gather" ~root ~ty:(Datatype.name dt);
  check_root comm root;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let count = Array.length data in
  record comm ~op:"gather" ~bytes:(Datatype.size_of_count dt count);
  if r <> root then begin
    (* The count is uniform and known on both sides, so zero-count calls
       skip the message symmetrically. *)
    if count > 0 then P2p.send_range comm dt ~dest:root ~tag:tag_gather data ~pos:0 ~count;
    [||]
  end
  else begin
    let out = if n * count = 0 then [||] else Array.make (n * count) (Datatype.zero_elem dt) in
    if count > 0 then Array.blit data 0 out (root * count) count;
    for src = 0 to n - 1 do
      if src <> root && count > 0 then begin
        let st =
          P2p.recv_into comm dt ~source:src ~tag:tag_gather ~pos:(src * count)
            ~maxcount:count out
        in
        if Status.count st <> count then
          Comm.error comm Errdefs.Err_count
            "gather: rank %d sent %d elements, expected %d" src (Status.count st) count
      end
    done;
    out
  end

let gather comm dt ~root data = traced comm ~op:"gather" (fun () -> gather comm dt ~root data)

let scatterv comm (dt : 'a Datatype.t) ~root ?send_counts (data : 'a array option) :
    'a array =
  prologue comm ~op:"scatterv" ~root ~ty:(Datatype.name dt);
  check_root comm root;
  charge_dense_scan comm;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  record comm ~op:"scatterv" ~bytes:0;
  if r = root then begin
    let data =
      match data with
      | Some d -> d
      | None -> Errdefs.usage_error "scatterv: root must provide data"
    in
    let counts =
      match send_counts with
      | Some c when Array.length c = n -> c
      | Some c ->
          Errdefs.usage_error "scatterv: send_counts has length %d, expected %d"
            (Array.length c) n
      | None -> Errdefs.usage_error "scatterv: root must provide send_counts"
    in
    let displs = Array.make n 0 in
    for i = 1 to n - 1 do
      displs.(i) <- displs.(i - 1) + counts.(i - 1)
    done;
    if displs.(n - 1) + counts.(n - 1) <> Array.length data then
      Errdefs.usage_error "scatterv: counts sum to %d but data has %d elements"
        (displs.(n - 1) + counts.(n - 1))
        (Array.length data);
    for dest = 0 to n - 1 do
      if dest <> root then
        P2p.send_range comm dt ~dest ~tag:tag_scatter data ~pos:displs.(dest)
          ~count:counts.(dest)
    done;
    Array.sub data displs.(root) counts.(root)
  end
  else begin
    let d, _ = P2p.recv comm dt ~source:root ~tag:tag_scatter () in
    d
  end

let scatterv comm dt ~root ?send_counts data =
  traced comm ~op:"scatterv" (fun () -> scatterv comm dt ~root ?send_counts data)

let scatter comm (dt : 'a Datatype.t) ~root (data : 'a array option) : 'a array =
  prologue comm ~op:"scatter" ~root ~ty:(Datatype.name dt);
  check_root comm root;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  record comm ~op:"scatter" ~bytes:0;
  if r = root then begin
    let data =
      match data with
      | Some d -> d
      | None -> Errdefs.usage_error "scatter: root must provide data"
    in
    if Array.length data mod n <> 0 then
      Errdefs.usage_error "scatter: data length %d not divisible by %d" (Array.length data) n;
    let count = Array.length data / n in
    for dest = 0 to n - 1 do
      if dest <> root then
        P2p.send_range comm dt ~dest ~tag:tag_scatter data ~pos:(dest * count) ~count
    done;
    Array.sub data (root * count) count
  end
  else begin
    let d, _ = P2p.recv comm dt ~source:root ~tag:tag_scatter () in
    d
  end

let scatter comm dt ~root data = traced comm ~op:"scatter" (fun () -> scatter comm dt ~root data)

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
    P2p.send_range comm dt ~dest ~tag:tag_allgather !buf ~pos:0
      ~count:(send_blocks * count);
    let incoming, _ = P2p.recv comm dt ~source:src ~tag:tag_allgather () in
    buf := Array.append !buf incoming;
    held := !held + send_blocks
  done;
  (* Rotate from local order (starting at r) to absolute order. *)
  let total = n * count in
  let out = if total = 0 then [||] else Array.make total (Datatype.zero_elem dt) in
  if count > 0 then
    for b = 0 to n - 1 do
      let abs_block = (r + b) mod n in
      Array.blit !buf (b * count) out (abs_block * count) count
    done;
  out

let allgather_ring_impl comm (dt : 'a Datatype.t) (data : 'a array) : 'a array =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let count = Array.length data in
  let out = if n * count = 0 then [||] else Array.make (n * count) (Datatype.zero_elem dt) in
  if count > 0 then Array.blit data 0 out (r * count) count;
  if n > 1 && count > 0 then begin
    let right = (r + 1) mod n in
    let left = (r - 1 + n) mod n in
    for s = 0 to n - 2 do
      let send_block = (r - s + n) mod n in
      let recv_block = (send_block - 1 + n) mod n in
      P2p.send_range comm dt ~dest:right ~tag:tag_allgather out ~pos:(send_block * count)
        ~count;
      let (_ : Status.t) =
        P2p.recv_into comm dt ~source:left ~tag:tag_allgather ~pos:(recv_block * count)
          ~maxcount:count out
      in
      ()
    done
  end;
  out

let allgather comm (dt : 'a Datatype.t) (data : 'a array) : 'a array =
  prologue comm ~op:"allgather" ~root:(-1) ~ty:(Datatype.name dt);
  let n = Comm.size comm in
  let count = Array.length data in
  record comm ~op:"allgather" ~bytes:(Datatype.size_of_count dt count);
  if n = 1 then Array.copy data
  else begin
    let bytes = Datatype.size_of_count dt count in
    let algo = choose comm Coll_algo.Allgather ~bytes ~commutative:true ~elems:count in
    dispatch comm Coll_algo.Allgather algo (fun () ->
        match algo with
        | Coll_algo.Ring -> allgather_ring_impl comm dt data
        | _ -> allgather_bruck comm dt data)
  end

let allgather comm dt data = traced comm ~op:"allgather" (fun () -> allgather comm dt data)

(* Allgatherv: ring exchange with per-rank block sizes.  [recv_counts] must
   be provided on every rank (MPI semantics); the binding layer is what
   infers it when omitted (paper §III-A). *)
let allgatherv comm (dt : 'a Datatype.t) ~(recv_counts : int array) (data : 'a array) :
    'a array =
  prologue comm ~op:"allgatherv" ~root:(-1) ~ty:(Datatype.name dt);
  charge_dense_scan comm;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  if Array.length recv_counts <> n then
    Errdefs.usage_error "allgatherv: recv_counts has length %d, expected %d"
      (Array.length recv_counts) n;
  if recv_counts.(r) <> Array.length data then
    Errdefs.usage_error "allgatherv: own recv_count %d does not match data length %d"
      recv_counts.(r) (Array.length data);
  record comm ~op:"allgatherv" ~bytes:(Datatype.size_of_count dt (Array.length data));
  let displs = Array.make n 0 in
  for i = 1 to n - 1 do
    displs.(i) <- displs.(i - 1) + recv_counts.(i - 1)
  done;
  let total = displs.(n - 1) + recv_counts.(n - 1) in
  if total = 0 then [||]
  else begin
    let out = Array.make total (Datatype.zero_elem dt) in
    Array.blit data 0 out displs.(r) recv_counts.(r);
    if n > 1 then begin
      let right = (r + 1) mod n in
      let left = (r - 1 + n) mod n in
      for s = 0 to n - 2 do
        (* At step s we forward block (r - s) and receive block (r-s-1);
           empty blocks still flow to keep the ring paired up. *)
        let send_block = (r - s + n) mod n in
        let recv_block = (send_block - 1 + n) mod n in
        P2p.send_range comm dt ~dest:right ~tag:tag_allgatherv out
          ~pos:displs.(send_block) ~count:recv_counts.(send_block);
        let st =
          P2p.recv_into comm dt ~source:left ~tag:tag_allgatherv ~pos:displs.(recv_block)
            ~maxcount:recv_counts.(recv_block) out
        in
        if Status.count st <> recv_counts.(recv_block) then
          Comm.error comm Errdefs.Err_count
            "allgatherv: expected %d elements of block %d, got %d"
            recv_counts.(recv_block) recv_block (Status.count st)
      done
    end;
    out
  end

let allgatherv comm dt ~recv_counts data =
  traced comm ~op:"allgatherv" (fun () -> allgatherv comm dt ~recv_counts data)

(* ------------------------------------------------------------------ *)
(* Alltoall family: pairwise exchange *)

let exclusive_prefix_sum (counts : int array) =
  let n = Array.length counts in
  let displs = Array.make n 0 in
  for i = 1 to n - 1 do
    displs.(i) <- displs.(i - 1) + counts.(i - 1)
  done;
  displs

let alltoall comm (dt : 'a Datatype.t) (data : 'a array) : 'a array =
  prologue comm ~op:"alltoall" ~root:(-1) ~ty:(Datatype.name dt);
  let n = Comm.size comm in
  let r = Comm.rank comm in
  if Array.length data mod n <> 0 then
    Errdefs.usage_error "alltoall: data length %d not divisible by %d" (Array.length data) n;
  let count = Array.length data / n in
  record comm ~op:"alltoall" ~bytes:(Datatype.size_of_count dt (Array.length data));
  let out = Array.copy data in
  (* Self block. *)
  if count > 0 then Array.blit data (r * count) out (r * count) count;
  for s = 1 to n - 1 do
    let dest = (r + s) mod n in
    let src = (r - s + n) mod n in
    P2p.send_range comm dt ~dest ~tag:tag_alltoall data ~pos:(dest * count) ~count;
    let (_ : Status.t) =
      P2p.recv_into comm dt ~source:src ~tag:tag_alltoall ~pos:(src * count)
        ~maxcount:count out
    in
    ()
  done;
  out

let alltoall comm dt data = traced comm ~op:"alltoall" (fun () -> alltoall comm dt data)

(* Variable alltoall.  Counts and displacements are all required, as in
   MPI — computing sensible defaults is the binding layer's job (§III-A).
   Empty pairs are skipped (both sides know the counts), but every rank
   pays the O(p) count-array scan. *)
let alltoallv comm (dt : 'a Datatype.t) ~(send_counts : int array)
    ~(send_displs : int array) ~(recv_counts : int array) ~(recv_displs : int array)
    (data : 'a array) : 'a array =
  prologue comm ~op:"alltoallv" ~root:(-1) ~ty:(Datatype.name dt);
  charge_dense_scan comm;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  if Array.length send_counts <> n || Array.length recv_counts <> n then
    Errdefs.usage_error "alltoallv: counts arrays must have length %d" n;
  let sdispls = send_displs in
  let rdispls = recv_displs in
  let send_bytes =
    Datatype.size_of_count dt (Array.fold_left ( + ) 0 send_counts)
  in
  record comm ~op:"alltoallv" ~bytes:send_bytes;
  let total_recv = rdispls.(n - 1) + recv_counts.(n - 1) in
  let seed = Datatype.zero_elem dt in
  let out = if total_recv = 0 then [||] else Array.make total_recv seed in
  (* Self block. *)
  if send_counts.(r) > 0 then begin
    if send_counts.(r) <> recv_counts.(r) then
      Comm.error comm Errdefs.Err_count "alltoallv: self send/recv count mismatch";
    Array.blit data sdispls.(r) out rdispls.(r) send_counts.(r)
  end;
  for s = 1 to n - 1 do
    let dest = (r + s) mod n in
    let src = (r - s + n) mod n in
    if send_counts.(dest) > 0 then
      P2p.send_range comm dt ~dest ~tag:tag_alltoallv data ~pos:sdispls.(dest)
        ~count:send_counts.(dest);
    if recv_counts.(src) > 0 then begin
      let st =
        P2p.recv_into comm dt ~source:src ~tag:tag_alltoallv ~pos:rdispls.(src)
          ~maxcount:recv_counts.(src) out
      in
      if Status.count st <> recv_counts.(src) then
        Comm.error comm Errdefs.Err_count
          "alltoallv: expected %d elements from rank %d, got %d" recv_counts.(src) src
          (Status.count st)
    end
  done;
  out

let alltoallv comm dt ~send_counts ~send_displs ~recv_counts ~recv_displs data =
  traced comm ~op:"alltoallv" (fun () ->
      alltoallv comm dt ~send_counts ~send_displs ~recv_counts ~recv_displs data)

(* Alltoallw-style exchange: pays per-peer derived-datatype setup on every
   rank and exchanges with *all* peers, empty or not.  This models why
   lowering gatherv/alltoallv onto alltoallw (as MPL does) is costly and
   limits scalability (paper §II, [9]). *)
let alltoallw comm (dt : 'a Datatype.t) ~(send_counts : int array)
    ~(recv_counts : int array) (data : 'a array) : 'a array =
  prologue comm ~op:"alltoallw" ~root:(-1) ~ty:(Datatype.name dt);
  charge_dense_scan comm;
  let rt = Comm.runtime comm in
  let n = Comm.size comm in
  let r = Comm.rank comm in
  if Array.length send_counts <> n || Array.length recv_counts <> n then
    Errdefs.usage_error "alltoallw: counts arrays must have length %d" n;
  (* Datatype setup: one derived datatype per peer, send and receive side. *)
  Runtime.advance_clock rt (Comm.world_rank comm)
    (2. *. float_of_int n *. rt.Runtime.model.Net_model.alltoallw_type_setup);
  let sdispls = exclusive_prefix_sum send_counts in
  let rdispls = exclusive_prefix_sum recv_counts in
  record comm ~op:"alltoallw"
    ~bytes:(Datatype.size_of_count dt (Array.fold_left ( + ) 0 send_counts));
  let total_recv = rdispls.(n - 1) + recv_counts.(n - 1) in
  let seed = Datatype.zero_elem dt in
  let out = if total_recv = 0 then [||] else Array.make total_recv seed in
  if send_counts.(r) > 0 then Array.blit data sdispls.(r) out rdispls.(r) send_counts.(r);
  for s = 1 to n - 1 do
    let dest = (r + s) mod n in
    let src = (r - s + n) mod n in
    (* No empty-pair skipping: a zero-size message still flows. *)
    P2p.send_range comm dt ~dest ~tag:tag_alltoallw data ~pos:sdispls.(dest)
      ~count:send_counts.(dest);
    let st =
      P2p.recv_into comm dt ~source:src ~tag:tag_alltoallw ~pos:rdispls.(src)
        ~maxcount:recv_counts.(src) out
    in
    if Status.count st <> recv_counts.(src) then
      Comm.error comm Errdefs.Err_count "alltoallw: count mismatch from rank %d" src
  done;
  out

let alltoallw comm dt ~send_counts ~recv_counts data =
  traced comm ~op:"alltoallw" (fun () -> alltoallw comm dt ~send_counts ~recv_counts data)

(* ------------------------------------------------------------------ *)
(* Reductions *)

let combine_into (op : 'a Reduce_op.t) ~(acc : 'a array) (other : 'a array) =
  if Array.length acc <> Array.length other then
    Errdefs.usage_error "reduce: element count mismatch (%d vs %d)" (Array.length acc)
      (Array.length other);
  for i = 0 to Array.length acc - 1 do
    acc.(i) <- Reduce_op.apply op acc.(i) other.(i)
  done

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

(* Binomial-tree reduce for commutative operations; gather + ordered fold
   for non-commutative ones (order must be rank order). *)
let reduce comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) ~root (data : 'a array) :
    'a array =
  prologue comm ~op:"reduce" ~root ~ty:(Datatype.name dt);
  check_root comm root;
  let n = Comm.size comm in
  let r = Comm.rank comm in
  record comm ~op:"reduce" ~bytes:(Datatype.size_of_count dt (Array.length data));
  if n = 1 then Array.copy data
  else if not op.Reduce_op.commutative then begin
    note_nc_order comm;
    (* Rank-ordered fold at the root. *)
    let gathered = gather comm dt ~root data in
    if r <> root then [||]
    else begin
      let count = Array.length data in
      let acc = Array.sub gathered 0 count in
      for src = 1 to n - 1 do
        combine_into op ~acc (Array.sub gathered (src * count) count)
      done;
      acc
    end
  end
  else begin
    let vrank = (r - root + n) mod n in
    let real v = (v + root) mod n in
    let acc = Array.copy data in
    let mask = ref 1 in
    let sent = ref false in
    while (not !sent) && !mask < n do
      if vrank land !mask <> 0 then begin
        P2p.send_range comm dt ~dest:(real (vrank - !mask)) ~tag:tag_reduce acc ~pos:0
          ~count:(Array.length acc);
        sent := true
      end
      else begin
        if vrank + !mask < n then begin
          let other, _ = P2p.recv comm dt ~source:(real (vrank + !mask)) ~tag:tag_reduce () in
          combine_into op ~acc other
        end;
        mask := !mask lsl 1
      end
    done;
    if r = root then acc else [||]
  end

let reduce comm dt op ~root data = traced comm ~op:"reduce" (fun () -> reduce comm dt op ~root data)

(* Reference allreduce lowering: reduce to rank 0, then a binomial bcast.
   The bcast is pinned to the binomial tree so this path's cost stays the
   seed 2-tree lowering whatever the bcast tuning says (it is both the
   order-safe fallback and the benchmark baseline). *)
let allreduce_reduce_bcast comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    (data : 'a array) : 'a array =
  let reduced = reduce comm dt op ~root:0 data in
  let root_data = if Comm.rank comm = 0 then Some reduced else None in
  traced comm ~op:"bcast" (fun () ->
      bcast_gen ~pin:(Some Coll_algo.Binomial) comm dt ~root:0 root_data)

(* The non-power-of-two preamble shared by recursive doubling and
   Rabenseifner (MPICH's rem-rank scheme): with pof2 = 2^floor(log2 p)
   and rem = p - pof2, each of the first 2*rem ranks pairs up — evens
   fold their vector into the odd neighbour and sit out (newrank -1),
   odds continue as newrank r/2; ranks >= 2*rem continue as r - rem.
   [combine_recv] must fold a received range into the local buffer. *)
let fold_into_pof2 comm dt ~rem ~total buf ~(combine_recv : src:int -> unit) =
  let r = Comm.rank comm in
  if r < 2 * rem then
    if r land 1 = 0 then begin
      P2p.send_range comm dt ~dest:(r + 1) ~tag:tag_allreduce buf ~pos:0 ~count:total;
      -1
    end
    else begin
      combine_recv ~src:(r - 1);
      r / 2
    end
  else r - rem

(* Mirror of the preamble: odd ranks of the first 2*rem pairs hold the
   full result and copy it back to their even neighbour. *)
let unfold_from_pof2 comm dt ~rem ~total buf =
  let r = Comm.rank comm in
  if r < 2 * rem then
    if r land 1 = 1 then
      P2p.send_range comm dt ~dest:(r - 1) ~tag:tag_allreduce buf ~pos:0 ~count:total
    else begin
      let st =
        P2p.recv_into comm dt ~source:(r + 1) ~tag:tag_allreduce ~pos:0 ~maxcount:total buf
      in
      if Status.count st <> total then
        Comm.error comm Errdefs.Err_count "allreduce: expected %d elements back, got %d"
          total (Status.count st)
    end

(* Recursive-doubling allreduce: log2 p rounds of full-vector exchange.
   Latency-optimal; bandwidth n*log p, so for short messages only.
   The core works in place on [buf] (already seeded with the local
   contribution) with caller-provided [scratch], so persistent requests
   can reuse both across cycles. *)
let allreduce_rdbl_core comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) ~total
    ~(buf : 'a array) ~(scratch : 'a array) : unit =
  let n = Comm.size comm in
  let pof2 = Coll_algo.floor_pow2 n in
  let rem = n - pof2 in
  let recv_combine ~src =
    let st =
      P2p.recv_into comm dt ~source:src ~tag:tag_allreduce ~pos:0 ~maxcount:total scratch
    in
    if Status.count st <> total then
      Comm.error comm Errdefs.Err_count "allreduce: expected %d elements from %d, got %d"
        total src (Status.count st);
    for i = 0 to total - 1 do
      buf.(i) <- Reduce_op.apply op buf.(i) scratch.(i)
    done
  in
  let newrank = fold_into_pof2 comm dt ~rem ~total buf ~combine_recv:recv_combine in
  if newrank >= 0 then begin
    let real nr = if nr < rem then (nr * 2) + 1 else nr + rem in
    let mask = ref 1 in
    while !mask < pof2 do
      let dst = real (newrank lxor !mask) in
      P2p.send_range comm dt ~dest:dst ~tag:tag_allreduce buf ~pos:0 ~count:total;
      recv_combine ~src:dst;
      mask := !mask lsl 1
    done
  end;
  unfold_from_pof2 comm dt ~rem ~total buf

let allreduce_rdbl comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) :
    'a array =
  let total = Array.length data in
  let buf = Array.copy data in
  let scratch = if total = 0 then [||] else Array.make total (Datatype.zero_elem dt) in
  allreduce_rdbl_core comm dt op ~total ~buf ~scratch;
  buf

(* Rabenseifner allreduce: recursive-halving reduce-scatter then
   recursive-doubling allgather over the pof2 sub-machine.  Bandwidth
   ~2n per rank instead of the 2-tree lowering's 2n*log p; the block
   bookkeeping (send_idx/recv_idx/last_idx walking the pof2 block table)
   follows MPICH's allreduce.  Like the recursive-doubling core, works in
   place on a seeded [buf]; [cnts]/[disps] are the pof2 block table
   (lengths pof2 and pof2+1), pre-filled by the caller. *)
let allreduce_rabenseifner_core comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) ~total
    ~(buf : 'a array) ~(scratch : 'a array) ~(disps : int array) : unit =
  let n = Comm.size comm in
  let pof2 = Coll_algo.floor_pow2 n in
  let rem = n - pof2 in
  let recv_combine_range ~src ~pos ~count =
    let st =
      P2p.recv_into comm dt ~source:src ~tag:tag_allreduce ~pos:0 ~maxcount:count scratch
    in
    if Status.count st <> count then
      Comm.error comm Errdefs.Err_count "allreduce: expected %d elements from %d, got %d"
        count src (Status.count st);
    for i = 0 to count - 1 do
      buf.(pos + i) <- Reduce_op.apply op buf.(pos + i) scratch.(i)
    done
  in
  let newrank =
    fold_into_pof2 comm dt ~rem ~total buf
      ~combine_recv:(fun ~src -> recv_combine_range ~src ~pos:0 ~count:total)
  in
  if newrank >= 0 && pof2 > 1 then begin
    let real nr = if nr < rem then (nr * 2) + 1 else nr + rem in
    (* Block v of the vector is [disps.(v), disps.(v+1)); blocks may be
       empty when total < pof2. *)
    let range_count lo hi = disps.(hi) - disps.(lo) in
    (* Reduce-scatter by recursive halving: each round exchanges half of
       the still-owned block range with the partner and folds the kept
       half.  After log2 pof2 rounds this rank owns one fully reduced
       block. *)
    let send_idx = ref 0 and recv_idx = ref 0 and last_idx = ref pof2 in
    let mask = ref 1 in
    while !mask < pof2 do
      let newdst = newrank lxor !mask in
      let dst = real newdst in
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
      P2p.send_range comm dt ~dest:dst ~tag:tag_allreduce buf ~pos:disps.(s_lo)
        ~count:(range_count s_lo s_hi);
      recv_combine_range ~src:dst ~pos:disps.(r_lo) ~count:(range_count r_lo r_hi);
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
      let dst = real newdst in
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
      P2p.send_range comm dt ~dest:dst ~tag:tag_allreduce buf ~pos:disps.(s_lo)
        ~count:(range_count s_lo s_hi);
      let rcount = range_count r_lo r_hi in
      let st =
        P2p.recv_into comm dt ~source:dst ~tag:tag_allreduce ~pos:disps.(r_lo)
          ~maxcount:rcount buf
      in
      if Status.count st <> rcount then
        Comm.error comm Errdefs.Err_count "allreduce: expected %d elements from %d, got %d"
          rcount dst (Status.count st);
      if newrank > newdst then send_idx := !recv_idx;
      mask := !mask asr 1
    done
  end;
  unfold_from_pof2 comm dt ~rem ~total buf

(* Fill the pof2 block table used by the Rabenseifner core: [disps] has
   pof2+1 entries; block sizes differ by at most one. *)
let rabenseifner_disps ~total ~pof2 : int array =
  let cnts = Array.make pof2 (total / pof2) in
  for i = 0 to (total mod pof2) - 1 do
    cnts.(i) <- cnts.(i) + 1
  done;
  let disps = Array.make (pof2 + 1) 0 in
  for i = 1 to pof2 do
    disps.(i) <- disps.(i - 1) + cnts.(i - 1)
  done;
  disps

let allreduce_rabenseifner comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    (data : 'a array) : 'a array =
  let total = Array.length data in
  let buf = Array.copy data in
  let scratch = if total = 0 then [||] else Array.make total (Datatype.zero_elem dt) in
  let disps = rabenseifner_disps ~total ~pof2:(Coll_algo.floor_pow2 (Comm.size comm)) in
  allreduce_rabenseifner_core comm dt op ~total ~buf ~scratch ~disps;
  buf

let allreduce comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) : 'a array =
  prologue comm ~op:"allreduce" ~root:(-1) ~ty:(Datatype.name dt);
  let elems = Array.length data in
  let bytes = Datatype.size_of_count dt elems in
  record comm ~op:"allreduce" ~bytes;
  if Comm.size comm = 1 then Array.copy data
  else begin
    let algo =
      choose comm Coll_algo.Allreduce ~bytes ~commutative:op.Reduce_op.commutative ~elems
    in
    dispatch comm Coll_algo.Allreduce algo (fun () ->
        match algo with
        | Coll_algo.Recursive_doubling -> allreduce_rdbl comm dt op data
        | Coll_algo.Rabenseifner -> allreduce_rabenseifner comm dt op data
        | _ -> allreduce_reduce_bcast comm dt op data)
  end

let allreduce comm dt op data = traced comm ~op:"allreduce" (fun () -> allreduce comm dt op data)

(* Inclusive prefix (Hillis-Steele): O(log p) rounds, order-preserving, so
   safe for non-commutative operations. *)
let scan comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) : 'a array =
  prologue comm ~op:"scan" ~root:(-1) ~ty:(Datatype.name dt);
  record comm ~op:"scan" ~bytes:(Datatype.size_of_count dt (Array.length data));
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let acc = Array.copy data in
  let len = Array.length acc in
  (* One scratch buffer for every round's incoming vector: the hot loop
     neither allocates nor copies beyond the in-place fold. *)
  let scratch = if len = 0 then [||] else Array.make len (Datatype.zero_elem dt) in
  let d = ref 1 in
  while !d < n do
    if r + !d < n then P2p.send_range comm dt ~dest:(r + !d) ~tag:tag_scan acc ~pos:0 ~count:len;
    if r - !d >= 0 then begin
      let st =
        P2p.recv_into comm dt ~source:(r - !d) ~tag:tag_scan ~pos:0 ~maxcount:len scratch
      in
      if Status.count st <> len then
        Errdefs.usage_error "scan: element count mismatch (%d vs %d)" len (Status.count st);
      (* [scratch] covers ranks before ours: combine on the left, writing
         the result straight into [acc]. *)
      for i = 0 to len - 1 do
        acc.(i) <- Reduce_op.apply op scratch.(i) acc.(i)
      done
    end;
    d := !d * 2
  done;
  acc

let scan comm dt op data = traced comm ~op:"scan" (fun () -> scan comm dt op data)

(* Exclusive prefix: rank 0 receives [None] (MPI leaves it undefined). *)
let exscan comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) :
    'a array option =
  prologue comm ~op:"exscan" ~root:(-1) ~ty:(Datatype.name dt);
  record comm ~op:"exscan" ~bytes:(Datatype.size_of_count dt (Array.length data));
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let inclusive = scan comm dt op data in
  (* Shift the inclusive result one rank to the right. *)
  if r + 1 < n then
    P2p.send_range comm dt ~dest:(r + 1) ~tag:tag_scan inclusive ~pos:0
      ~count:(Array.length inclusive);
  if r = 0 then None
  else begin
    let d, _ = P2p.recv comm dt ~source:(r - 1) ~tag:tag_scan () in
    Some d
  end

let exscan comm dt op data = traced comm ~op:"exscan" (fun () -> exscan comm dt op data)

(* Single-element conveniences used heavily by applications. *)
let allreduce_single comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (x : 'a) : 'a =
  (allreduce comm dt op [| x |]).(0)

let scan_single comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (x : 'a) : 'a =
  (scan comm dt op [| x |]).(0)

let exscan_single comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (x : 'a) : 'a option =
  match exscan comm dt op [| x |] with
  | None -> None
  | Some a -> Some a.(0)

(* ------------------------------------------------------------------ *)
(* Neighborhood collectives (static graph topologies, §V-A) *)

let topology_exn comm ~op =
  match Comm.topology comm with
  | Some t -> t
  | None -> Errdefs.usage_error "%s: communicator has no graph topology" op

(* Send [data] to every out-neighbor; receive one block per in-neighbor,
   returned in source order. *)
let neighbor_allgather comm (dt : 'a Datatype.t) (data : 'a array) : 'a array array =
  prologue comm ~op:"neighbor_allgather" ~root:(-1) ~ty:(Datatype.name dt);
  let topo = topology_exn comm ~op:"neighbor_allgather" in
  record comm ~op:"neighbor_allgather"
    ~bytes:(Datatype.size_of_count dt (Array.length data));
  Array.iter
    (fun dest ->
      P2p.send_range comm dt ~dest ~tag:tag_neighbor data ~pos:0
        ~count:(Array.length data))
    topo.Comm.destinations;
  Array.map
    (fun src ->
      let d, _ = P2p.recv comm dt ~source:src ~tag:tag_neighbor () in
      d)
    topo.Comm.sources

let neighbor_allgather comm dt data =
  traced comm ~op:"neighbor_allgather" (fun () -> neighbor_allgather comm dt data)

(* Variable-size neighbor exchange: block i of [data] goes to
   destinations.(i); the result concatenates one block per source, with
   [recv_counts] in source order. *)
let neighbor_alltoallv comm (dt : 'a Datatype.t) ~(send_counts : int array)
    ~(recv_counts : int array) (data : 'a array) : 'a array =
  prologue comm ~op:"neighbor_alltoallv" ~root:(-1) ~ty:(Datatype.name dt);
  let topo = topology_exn comm ~op:"neighbor_alltoallv" in
  let out_deg = Array.length topo.Comm.destinations in
  let in_deg = Array.length topo.Comm.sources in
  if Array.length send_counts <> out_deg then
    Errdefs.usage_error "neighbor_alltoallv: send_counts length %d, expected out-degree %d"
      (Array.length send_counts) out_deg;
  if Array.length recv_counts <> in_deg then
    Errdefs.usage_error "neighbor_alltoallv: recv_counts length %d, expected in-degree %d"
      (Array.length recv_counts) in_deg;
  record comm ~op:"neighbor_alltoallv"
    ~bytes:(Datatype.size_of_count dt (Array.fold_left ( + ) 0 send_counts));
  let sdispls = exclusive_prefix_sum send_counts in
  Array.iteri
    (fun i dest ->
      if send_counts.(i) > 0 then
        P2p.send_range comm dt ~dest ~tag:tag_neighbor data ~pos:sdispls.(i)
          ~count:send_counts.(i))
    topo.Comm.destinations;
  let rdispls = exclusive_prefix_sum recv_counts in
  let total = if in_deg = 0 then 0 else rdispls.(in_deg - 1) + recv_counts.(in_deg - 1) in
  let seed = Datatype.zero_elem dt in
  let out = if total = 0 then [||] else Array.make total seed in
  Array.iteri
    (fun i src ->
      if recv_counts.(i) > 0 then begin
        let st =
          P2p.recv_into comm dt ~source:src ~tag:tag_neighbor ~pos:rdispls.(i)
            ~maxcount:recv_counts.(i) out
        in
        if Status.count st <> recv_counts.(i) then
          Comm.error comm Errdefs.Err_count "neighbor_alltoallv: count mismatch from %d" src
      end)
    topo.Comm.sources;
  out

let neighbor_alltoallv comm dt ~send_counts ~recv_counts data =
  traced comm ~op:"neighbor_alltoallv" (fun () ->
      neighbor_alltoallv comm dt ~send_counts ~recv_counts data)

(* Ring allgather under its own name: always the ring algorithm,
   regardless of tuning — kept for the algorithm-choice ablation
   (DESIGN.md §4). *)
let allgather_ring comm (dt : 'a Datatype.t) (data : 'a array) : 'a array =
  prologue comm ~op:"allgather_ring" ~root:(-1) ~ty:(Datatype.name dt);
  record comm ~op:"allgather_ring" ~bytes:(Datatype.size_of_count dt (Array.length data));
  allgather_ring_impl comm dt data

let allgather_ring comm dt data =
  traced comm ~op:"allgather_ring" (fun () -> allgather_ring comm dt data)

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
   rank r+s and folds the block received from rank r-s.  Each rank only
   ever materializes its own block plus one incoming block — O(n/p) where
   the reference lowering needs the whole O(n) vector at the root.
   Commutative operators only (blocks are folded in arrival order). *)
let reduce_scatter_pairwise_core comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    ~(recv_counts : int array) ~(displs : int array) ~(data : 'a array) ~(acc : 'a array)
    ~(scratch : 'a array) : unit =
  let n = Comm.size comm in
  let r = Comm.rank comm in
  let mine = recv_counts.(r) in
  Array.blit data displs.(r) acc 0 mine;
  note_rs_scratch comm (2 * mine);
  for s = 1 to n - 1 do
    let dest = (r + s) mod n in
    let src = (r - s + n) mod n in
    P2p.send_range comm dt ~dest ~tag:tag_reduce_scatter data ~pos:displs.(dest)
      ~count:recv_counts.(dest);
    let st =
      P2p.recv_into comm dt ~source:src ~tag:tag_reduce_scatter ~pos:0 ~maxcount:mine
        scratch
    in
    if Status.count st <> mine then
      Comm.error comm Errdefs.Err_count
        "reduce_scatter: expected %d elements from rank %d, got %d" mine src
        (Status.count st);
    for i = 0 to mine - 1 do
      acc.(i) <- Reduce_op.apply op acc.(i) scratch.(i)
    done
  done

let reduce_scatter_pairwise comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    ~(recv_counts : int array) ~(displs : int array) (data : 'a array) : 'a array =
  let mine = recv_counts.(Comm.rank comm) in
  let acc = if mine = 0 then [||] else Array.make mine (Datatype.zero_elem dt) in
  let scratch = if mine = 0 then [||] else Array.make mine (Datatype.zero_elem dt) in
  reduce_scatter_pairwise_core comm dt op ~recv_counts ~displs ~data ~acc ~scratch;
  acc

(* Equal block sizes: data has p * count elements; rank r receives the
   reduced block r. *)
let reduce_scatter_block comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    (data : 'a array) : 'a array =
  prologue comm ~op:"reduce_scatter_block" ~root:(-1) ~ty:(Datatype.name dt);
  let n = Comm.size comm in
  if Array.length data mod n <> 0 then
    Errdefs.usage_error "reduce_scatter_block: data length %d not divisible by %d"
      (Array.length data) n;
  let total = Array.length data in
  let bytes = Datatype.size_of_count dt total in
  record comm ~op:"reduce_scatter_block" ~bytes;
  if n = 1 then Array.copy data
  else begin
    let algo =
      choose comm Coll_algo.Reduce_scatter ~bytes ~commutative:op.Reduce_op.commutative
        ~elems:total
    in
    dispatch comm Coll_algo.Reduce_scatter algo (fun () ->
        match algo with
        | Coll_algo.Pairwise ->
            let count = total / n in
            let recv_counts = Array.make n count in
            let displs = Array.init n (fun i -> i * count) in
            reduce_scatter_pairwise comm dt op ~recv_counts ~displs data
        | _ ->
            if Comm.rank comm = 0 then note_rs_scratch comm total;
            let reduced = reduce comm dt op ~root:0 data in
            scatter comm dt ~root:0 (if Comm.rank comm = 0 then Some reduced else None))
  end

let reduce_scatter_block comm dt op data =
  traced comm ~op:"reduce_scatter_block" (fun () -> reduce_scatter_block comm dt op data)

(* Per-rank block sizes: [recv_counts.(r)] elements of the reduced vector
   go to rank r. *)
let reduce_scatter comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    ~(recv_counts : int array) (data : 'a array) : 'a array =
  prologue comm ~op:"reduce_scatter" ~root:(-1) ~ty:(Datatype.name dt);
  let n = Comm.size comm in
  if Array.length recv_counts <> n then
    Errdefs.usage_error "reduce_scatter: recv_counts must have length %d" n;
  let total = Array.fold_left ( + ) 0 recv_counts in
  if Array.length data <> total then
    Errdefs.usage_error "reduce_scatter: data length %d does not match counts sum %d"
      (Array.length data) total;
  let bytes = Datatype.size_of_count dt total in
  record comm ~op:"reduce_scatter" ~bytes;
  if n = 1 then Array.copy data
  else begin
    let algo =
      choose comm Coll_algo.Reduce_scatter ~bytes ~commutative:op.Reduce_op.commutative
        ~elems:total
    in
    dispatch comm Coll_algo.Reduce_scatter algo (fun () ->
        match algo with
        | Coll_algo.Pairwise ->
            let displs = exclusive_prefix_sum recv_counts in
            reduce_scatter_pairwise comm dt op ~recv_counts ~displs data
        | _ ->
            if Comm.rank comm = 0 then note_rs_scratch comm total;
            let reduced = reduce comm dt op ~root:0 data in
            scatterv comm dt ~root:0 ~send_counts:recv_counts
              (if Comm.rank comm = 0 then Some reduced else None))
  end

let reduce_scatter comm dt op ~recv_counts data =
  traced comm ~op:"reduce_scatter" (fun () -> reduce_scatter comm dt op ~recv_counts data)

(* ------------------------------------------------------------------ *)
(* Persistent collectives (MPI-4 MPI_Allreduce_init etc.).

   Everything the ad-hoc path recomputes per call is frozen at init:

   - the {!Coll_algo} choice for this (bytes, size) key — [choose] is a
     pure function of inputs that only change between runs, so the frozen
     algorithm (and its [coll.algo.*] counter) is exactly what each
     ad-hoc call would pick;
   - the [coll.algo] Stats counter and the profiling handle pair (the
     per-call [Hashtbl] lookups in [dispatch]/[Runtime.record] are the
     allocation the ad-hoc path cannot avoid);
   - working buffers (result copy, scratch vector, block tables), reused
     across cycles;
   - a pre-warmed pooled writer sized for the largest per-round payload.

   A cycle of a single-rank persistent collective is fully allocation-free
   (the Gc-asserted case); multi-rank cycles still allocate in transport
   (in-flight messages, posted-receive records) but skip every per-call
   setup allocation above.

   Like the non-blocking collectives, the persistent ones progress inside
   wait: [start] marks the cycle active and [wait_p] runs the blocking
   algorithm — legal because MPI only promises completion at wait. *)

(* The per-cycle runner: the ad-hoc prologue/record/dispatch sequence
   with every name and handle pre-resolved.  [frozen = None] is the
   single-rank path with no algorithm dispatch. *)
let persistent_runner comm ~op ~root ~ty ~prep ~bytes ~(frozen : Coll_algo.frozen option)
    (body : unit -> unit) : unit -> unit =
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  match frozen with
  | None ->
      fun () ->
        prologue comm ~op ~root ~ty;
        Profiling.record_prepared rt.Runtime.profile prep ~bytes;
        Runtime.with_span rt me ~cat:"coll" ~name:op body
  | Some fz ->
      let counter = Stats.counter rt.Runtime.stats fz.Coll_algo.frozen_counter in
      (* Same label save/restore as [dispatch]; the closures of the
         comm-matrix branch are only built when the matrix is enabled. *)
      let dispatch_body () =
        Stats.incr counter;
        let cm = rt.Runtime.comm_matrix in
        if Comm_matrix.enabled cm then begin
          let prev = Comm_matrix.label cm me in
          Comm_matrix.set_label cm me fz.Coll_algo.frozen_span;
          Fun.protect
            ~finally:(fun () -> Comm_matrix.set_label cm me prev)
            (fun () ->
              Runtime.with_span rt me ~cat:"coll" ~name:fz.Coll_algo.frozen_span body)
        end
        else Runtime.with_span rt me ~cat:"coll" ~name:fz.Coll_algo.frozen_span body
      in
      fun () ->
        prologue comm ~op ~root ~ty;
        Profiling.record_prepared rt.Runtime.profile prep ~bytes;
        Runtime.with_span rt me ~cat:"coll" ~name:op dispatch_body

let scratch_like (dt : 'a Datatype.t) n : 'a array =
  if n = 0 then [||] else Array.make n (Datatype.zero_elem dt)

(* Persistent allreduce: reduces [src] into [dst] each cycle.  Buffers
   are fixed at init per MPI persistent semantics; [src == dst] works
   (in-place). *)
let allreduce_init comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) ~(src : 'a array)
    ~(dst : 'a array) : Request.p =
  prologue comm ~op:"allreduce_init" ~root:(-1) ~ty:(Datatype.name dt);
  let elems = Array.length src in
  if Array.length dst <> elems then
    Errdefs.usage_error "allreduce_init: src has %d elements but dst has %d" elems
      (Array.length dst);
  let bytes = Datatype.size_of_count dt elems in
  record comm ~op:"allreduce_init" ~bytes;
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let ty = Datatype.name dt in
  let prep = Profiling.prepare rt.Runtime.profile "allreduce" in
  let n = Comm.size comm in
  let run =
    if n = 1 then
      persistent_runner comm ~op:"allreduce" ~root:(-1) ~ty ~prep ~bytes ~frozen:None
        (fun () -> Array.blit src 0 dst 0 elems)
    else begin
      let frozen =
        Coll_algo.freeze rt.Runtime.model Coll_algo.Allreduce ~bytes ~size:n
          ~commutative:op.Reduce_op.commutative ~elems
      in
      Runtime.preheat_writer rt me ~capacity:(max 8 bytes);
      let body =
        match frozen.Coll_algo.frozen_algo with
        | Coll_algo.Recursive_doubling ->
            let scratch = scratch_like dt elems in
            fun () ->
              Array.blit src 0 dst 0 elems;
              allreduce_rdbl_core comm dt op ~total:elems ~buf:dst ~scratch
        | Coll_algo.Rabenseifner ->
            let scratch = scratch_like dt elems in
            let disps =
              rabenseifner_disps ~total:elems ~pof2:(Coll_algo.floor_pow2 n)
            in
            fun () ->
              Array.blit src 0 dst 0 elems;
              allreduce_rabenseifner_core comm dt op ~total:elems ~buf:dst ~scratch ~disps
        | _ ->
            (* Order-safe reference lowering; allocates per cycle like the
               ad-hoc path it wraps. *)
            fun () ->
              let res = allreduce_reduce_bcast comm dt op src in
              Array.blit res 0 dst 0 elems
      in
      persistent_runner comm ~op:"allreduce" ~root:(-1) ~ty ~prep ~bytes
        ~frozen:(Some frozen) body
    end
  in
  Request.make_p ~describe:"allreduce_init" ~start:(fun () -> ()) ~ready:(fun () -> true)
    ~run

(* Persistent bcast.  Unlike the ad-hoc binding (payload at the root
   only), the buffer argument exists on every rank — MPI-style — so the
   element count is known everywhere at init and no count rendezvous is
   needed; size-keyed selection still matches the ad-hoc choice because
   both key on the same byte total. *)
let bcast_init comm (dt : 'a Datatype.t) ~root (buf : 'a array) : Request.p =
  prologue comm ~op:"bcast_init" ~root ~ty:(Datatype.name dt);
  check_root comm root;
  let total = Array.length buf in
  let bytes = Datatype.size_of_count dt total in
  let rbytes = if Comm.rank comm = root then bytes else 0 in
  record comm ~op:"bcast_init" ~bytes:rbytes;
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let ty = Datatype.name dt in
  let prep = Profiling.prepare rt.Runtime.profile "bcast" in
  let n = Comm.size comm in
  let run =
    if n = 1 then
      persistent_runner comm ~op:"bcast" ~root ~ty ~prep ~bytes:rbytes ~frozen:None
        (fun () -> ())
    else begin
      let frozen =
        Coll_algo.freeze rt.Runtime.model Coll_algo.Bcast ~bytes ~size:n ~commutative:true
          ~elems:total
      in
      Runtime.preheat_writer rt me ~capacity:(max 8 bytes);
      let body =
        match frozen.Coll_algo.frozen_algo with
        | Coll_algo.Scatter_allgather ->
            let cnts, disps = bcast_block_table comm ~total in
            fun () -> bcast_scatter_allgather_core comm dt ~root ~cnts ~disps buf
        | _ -> fun () -> bcast_binomial_into comm dt ~root ~total buf
      in
      persistent_runner comm ~op:"bcast" ~root ~ty ~prep ~bytes:rbytes
        ~frozen:(Some frozen) body
    end
  in
  Request.make_p ~describe:"bcast_init" ~start:(fun () -> ()) ~ready:(fun () -> true) ~run

(* Persistent reduce_scatter: reduces [src] and scatters block r into
   [dst] (whose length must be [recv_counts.(r)]). *)
let reduce_scatter_init comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t)
    ~(recv_counts : int array) ~(src : 'a array) ~(dst : 'a array) : Request.p =
  prologue comm ~op:"reduce_scatter_init" ~root:(-1) ~ty:(Datatype.name dt);
  let n = Comm.size comm in
  let r = Comm.rank comm in
  if Array.length recv_counts <> n then
    Errdefs.usage_error "reduce_scatter_init: recv_counts must have length %d" n;
  let total = Array.fold_left ( + ) 0 recv_counts in
  if Array.length src <> total then
    Errdefs.usage_error "reduce_scatter_init: src length %d does not match counts sum %d"
      (Array.length src) total;
  let mine = recv_counts.(r) in
  if Array.length dst <> mine then
    Errdefs.usage_error "reduce_scatter_init: dst length %d but this rank receives %d"
      (Array.length dst) mine;
  let bytes = Datatype.size_of_count dt total in
  record comm ~op:"reduce_scatter_init" ~bytes;
  let rt = Comm.runtime comm in
  let me = Comm.world_rank comm in
  let ty = Datatype.name dt in
  let prep = Profiling.prepare rt.Runtime.profile "reduce_scatter" in
  let displs = exclusive_prefix_sum recv_counts in
  let run =
    if n = 1 then
      persistent_runner comm ~op:"reduce_scatter" ~root:(-1) ~ty ~prep ~bytes ~frozen:None
        (fun () -> Array.blit src 0 dst 0 total)
    else begin
      let frozen =
        Coll_algo.freeze rt.Runtime.model Coll_algo.Reduce_scatter ~bytes ~size:n
          ~commutative:op.Reduce_op.commutative ~elems:total
      in
      Runtime.preheat_writer rt me
        ~capacity:(max 8 (Datatype.size_of_count dt (Array.fold_left max 0 recv_counts)));
      let body =
        match frozen.Coll_algo.frozen_algo with
        | Coll_algo.Pairwise ->
            let scratch = scratch_like dt mine in
            fun () ->
              reduce_scatter_pairwise_core comm dt op ~recv_counts ~displs ~data:src
                ~acc:dst ~scratch
        | _ ->
            (* Order-safe reference lowering; allocates per cycle. *)
            fun () ->
              if r = 0 then note_rs_scratch comm total;
              let reduced = reduce comm dt op ~root:0 src in
              let part =
                scatterv comm dt ~root:0 ~send_counts:recv_counts
                  (if r = 0 then Some reduced else None)
              in
              Array.blit part 0 dst 0 mine
      in
      persistent_runner comm ~op:"reduce_scatter" ~root:(-1) ~ty ~prep ~bytes
        ~frozen:(Some frozen) body
    end
  in
  Request.make_p ~describe:"reduce_scatter_init" ~start:(fun () -> ())
    ~ready:(fun () -> true) ~run

(* ------------------------------------------------------------------ *)
(* Non-blocking collectives.

   Progress semantics: like an MPI implementation without asynchronous
   progress threads, the collective advances only inside wait/test — the
   request defers the blocking algorithm to its finalization, which every
   rank must reach.  This provides the deferred-start pattern (post now,
   complete after independent work) without overlap guarantees. *)

let deferred_collective comm ~opname (run : unit -> unit) : Request.t =
  let rt = Comm.runtime comm in
  Runtime.record rt ~op:opname ~bytes:0;
  let cell = ref None in
  let req =
    Request.make
      ~ready:(fun () -> true)
      ~finalize:(fun () ->
        (match !cell with
        | Some () -> ()
        | None ->
            run ();
            cell := Some ());
        Status.make ~source:(Comm.rank comm) ~tag:0 ~count:0 ~bytes:0)
      ~describe:(fun () -> opname)
  in
  if Check.enabled rt.Runtime.check then
    Check.track_request rt.Runtime.check ~rank:(Comm.world_rank comm) ~kind:opname req;
  req

let ibcast comm (dt : 'a Datatype.t) ~root (data : 'a array option) :
    Request.t * 'a array option ref =
  let result = ref None in
  let req =
    deferred_collective comm ~opname:"ibcast" (fun () ->
        result := Some (bcast comm dt ~root data))
  in
  (req, result)

let iallreduce comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) (data : 'a array) :
    Request.t * 'a array option ref =
  let result = ref None in
  let req =
    deferred_collective comm ~opname:"iallreduce" (fun () ->
        result := Some (allreduce comm dt op data))
  in
  (req, result)

let ialltoallv comm (dt : 'a Datatype.t) ~send_counts ~send_displs ~recv_counts
    ~recv_displs (data : 'a array) : Request.t * 'a array option ref =
  let result = ref None in
  let req =
    deferred_collective comm ~opname:"ialltoallv" (fun () ->
        result :=
          Some (alltoallv comm dt ~send_counts ~send_displs ~recv_counts ~recv_displs data))
  in
  (req, result)

let ireduce_scatter comm (dt : 'a Datatype.t) (op : 'a Reduce_op.t) ~recv_counts
    (data : 'a array) : Request.t * 'a array option ref =
  let result = ref None in
  let req =
    deferred_collective comm ~opname:"ireduce_scatter" (fun () ->
        result := Some (reduce_scatter comm dt op ~recv_counts data))
  in
  (req, result)
