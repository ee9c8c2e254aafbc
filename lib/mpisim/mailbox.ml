(* Per-rank message matching.

   Matching follows MPI semantics: a receive names (context, source, tag),
   where source and tag may be wildcards; messages between a fixed
   (context, source, tag) triple are non-overtaking.  We keep an exact-key
   hash of FIFO queues for the common case and use global sequence numbers
   to arbitrate wildcard matches (oldest message wins, as a sane
   deterministic policy).

   Hot-path data structures are O(1) amortized:

   - posted receives live in a FIFO queue; retiring or cancelling marks a
     tombstone that is reclaimed lazily (popped when it reaches the front,
     compacted when tombstones outnumber live entries), so post/retire
     never walk the queue the way the previous list-append design did;
   - unexpected messages are indexed context-first: an exact-key receive
     is two hash lookups, and a wildcard scan folds only over the keys of
     its own context instead of the whole table;
   - a per-key queue that drains is removed from the index immediately, so
     long runs with many distinct (src, tag) pairs cannot grow the table
     without bound. *)

let any_source = -1

let any_tag = -1

(* User tags are 0..[max_user_tag]; the tags above are reserved for the
   internal messages of collectives and other library protocols. *)
let max_user_tag = (1 lsl 20) - 1

(* A receive's tag pattern against a message's tag.  The wildcard matches
   user tags only, as collective traffic in MPI travels in a context of
   its own: an [any_tag] receive never takes a collective's message. *)
let tag_matches pattern tag =
  if pattern = any_tag then tag <= max_user_tag else pattern = tag

(* The same for a source pattern. *)
let src_matches pattern src = pattern = any_source || pattern = src

type key = { mutable k_src : int; mutable k_tag : int }

type posted = {
  p_context : int;
  p_src : int;  (* may be [any_source] *)
  p_tag : int;  (* may be [any_tag] *)
  p_id : int;
  p_clock : float;  (* receiver's virtual clock when the recv was posted *)
  mutable p_msg : Message.t option;  (* set when matched *)
  mutable p_cancelled : bool;
  mutable p_dead : bool;  (* tombstone: retired or cancelled, skip on scan *)
  mutable p_deferred : bool;  (* model checker owns this match choice *)
}

type t = {
  (* context id -> (src, tag) -> FIFO of unexpected messages *)
  unexpected : (int, (key, Message.t Queue.t) Hashtbl.t) Hashtbl.t;
  posted : posted Queue.t;  (* in posting order, with tombstones *)
  mutable n_tombstones : int;
  mutable next_posted_id : int;
  (* O(1) depth counters so the runtime can histogram queue depths without
     walking the structures on every delivery. *)
  mutable n_unexpected : int;
  mutable n_posted : int;  (* live entries of [posted] *)
  (* Set by the model checker for its own runs only: wildcard receives
     defer their match to the explorer's resolver. *)
  mutable defer_wildcards : bool;
  probe : key;  (* [head_exact]'s reused lookup key: mutated, never stored *)
}

let create () =
  {
    unexpected = Hashtbl.create 4;
    posted = Queue.create ();
    n_tombstones = 0;
    next_posted_id = 0;
    n_unexpected = 0;
    n_posted = 0;
    defer_wildcards = false;
    probe = { k_src = 0; k_tag = 0 };
  }

let set_defer_wildcards t on = t.defer_wildcards <- on

let defers_wildcards t = t.defer_wildcards

let posted_matches (p : posted) (m : Message.t) =
  p.p_msg = None && (not p.p_cancelled) && (not p.p_deferred)
  && p.p_context = m.Message.context
  && src_matches p.p_src m.Message.src
  && tag_matches p.p_tag m.Message.tag

let match_posted (p : posted) (m : Message.t) =
  p.p_msg <- Some m;
  m.Message.matched_time <- Float.max m.Message.arrival p.p_clock

(* Reclaim the dead prefix of the posted queue: cheap, and it keeps the
   common post/match/retire cycle from accumulating queue nodes. *)
let rec drop_dead_prefix t =
  if (not (Queue.is_empty t.posted)) && (Queue.peek t.posted).p_dead then begin
    ignore (Queue.pop t.posted);
    t.n_tombstones <- t.n_tombstones - 1;
    drop_dead_prefix t
  end

(* Deliver [m] to the oldest compatible posted receive, if any.  The match
   time — which is when a synchronous sender may complete — is when both
   the message has arrived AND the receiver was ready for it.  The scan
   visits entries in posting order and stops at the first live match;
   tombstones are skipped (and reclaimed when they reach the front).  The
   front entry, live after the reclaim, is tried first without building
   the scan's closure: in a blocking exchange it is the receive waiting
   for this very message. *)
let try_match_posted t (m : Message.t) =
  drop_dead_prefix t;
  if Queue.is_empty t.posted then false
  else if posted_matches (Queue.peek t.posted) m then begin
    match_posted (Queue.peek t.posted) m;
    true
  end
  else begin
    let matched = ref false in
    (try
       Queue.iter
         (fun p ->
           if (not p.p_dead) && posted_matches p m then begin
             match_posted p m;
             matched := true;
             raise Exit
           end)
         t.posted
     with Exit -> ());
    !matched
  end

let context_table t ~context =
  match Hashtbl.find_opt t.unexpected context with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.unexpected context tbl;
      tbl

let enqueue_unexpected t (m : Message.t) =
  let tbl = context_table t ~context:m.Message.context in
  let k = { k_src = m.Message.src; k_tag = m.Message.tag } in
  let q =
    match Hashtbl.find_opt tbl k with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace tbl k q;
        q
  in
  Queue.add m q;
  t.n_unexpected <- t.n_unexpected + 1

(* Entry point for the runtime: a message has arrived at this rank.
   Returns [true] if the message matched an already-posted receive. *)
let deliver t (m : Message.t) =
  if try_match_posted t m then true
  else begin
    enqueue_unexpected t m;
    false
  end

(* Pop the head of the per-key queue [q] (key [k] of context table
   [tbl]); a queue that drains gives its table entry back at once. *)
let take_head t tbl ~context k q =
  let m = Queue.pop q in
  t.n_unexpected <- t.n_unexpected - 1;
  if Queue.is_empty q then begin
    Hashtbl.remove tbl k;
    if Hashtbl.length tbl = 0 then Hashtbl.remove t.unexpected context
  end;
  m

(* Find (and optionally remove) the oldest unexpected message matching the
   (context, src, tag) pattern.  Exact patterns are two hash lookups;
   wildcards fold over the keys of their context only.  Removal that
   drains a queue reclaims its table entry immediately. *)
let find_unexpected ?(remove = true) t ~context ~src ~tag =
  match Hashtbl.find t.unexpected context with
  | exception Not_found -> None
  | tbl when src <> any_source && tag <> any_tag -> (
      let k = { k_src = src; k_tag = tag } in
      match Hashtbl.find tbl k with
      | q when not (Queue.is_empty q) ->
          Some (if remove then take_head t tbl ~context k q else Queue.peek q)
      | _ | (exception Not_found) -> None)
  | tbl -> (
      let best =
        Hashtbl.fold
          (fun k q acc ->
            if src_matches src k.k_src && tag_matches tag k.k_tag && not (Queue.is_empty q)
            then begin
              let m = Queue.peek q in
              match acc with
              | Some (m', _, _) when m'.Message.seq <= m.Message.seq -> acc
              | _ -> Some (m, q, k)
            end
            else acc)
          tbl None
      in
      match best with
      | None -> None
      | Some (m, q, k) -> Some (if remove then take_head t tbl ~context k q else m))

(* The oldest unexpected message with exactly this key, left queued, found
   without allocating (for polls); raises [Not_found] if there is none (a
   queue in the index is never empty: [take_head] drops a drained one). *)
let head_exact t ~context ~src ~tag =
  t.probe.k_src <- src;
  t.probe.k_tag <- tag;
  Queue.peek (Hashtbl.find (Hashtbl.find t.unexpected context) t.probe)

(* Number of unexpected messages a (context, src, tag) pattern could match
   right now.  The sanitizer's wildcard-race check calls this (heavy level
   only) just before posting a wildcard receive: two or more eligible
   candidates mean the match is arbitrated by sequence number — i.e. by the
   schedule — and a real MPI run could return a different message. *)
let count_eligible t ~context ~src ~tag =
  match Hashtbl.find_opt t.unexpected context with
  | None -> 0
  | Some tbl ->
      Hashtbl.fold
        (fun k q acc ->
          if src_matches src k.k_src && tag_matches tag k.k_tag then acc + Queue.length q
          else acc)
        tbl 0

(* Post a receive at receiver-clock [now].  If a compatible unexpected
   message exists it is matched immediately (match time: both sides
   ready) and the receive never enters the posted queue: it is born a
   tombstone, so retiring it later leaves the live count alone.

   Under the model checker ([defer_wildcards]), wildcard receives are NOT
   matched eagerly: the match is the decision point being explored, so
   the post parks as deferred and the explorer's quiescence resolver
   picks among the candidates.  Exact (src, tag) receives stay eager —
   non-overtaking makes their match unique, so deferring them would only
   multiply equivalent schedules. *)
let post t ~context ~src ~tag ~now =
  let p =
    {
      p_context = context;
      p_src = src;
      p_tag = tag;
      p_id = t.next_posted_id;
      p_clock = now;
      p_msg = None;
      p_cancelled = false;
      p_dead = false;
      p_deferred = false;
    }
  in
  t.next_posted_id <- t.next_posted_id + 1;
  if t.defer_wildcards && (src = any_source || tag = any_tag) then begin
    p.p_deferred <- true;
    Queue.add p t.posted;
    t.n_posted <- t.n_posted + 1
  end
  else
    (match find_unexpected t ~context ~src ~tag with
    | Some m ->
        p.p_dead <- true;
        match_posted p m
    | None ->
        Queue.add p t.posted;
        t.n_posted <- t.n_posted + 1);
  p

(* ---- Model-checker resolver API (only used under [defer_wildcards]) ---- *)

(* Visit every live deferred receive, in posting order. *)
let iter_deferred t f =
  Queue.iter (fun p -> if (not p.p_dead) && p.p_deferred && p.p_msg = None then f p) t.posted

(* The candidate set for a deferred receive: the *heads* of each matching
   per-(src, tag) queue, sorted by global seq.  Non-head messages in those
   queues are unreachable choices — MPI non-overtaking forces the head of
   each queue to match first — so they are pruned from the branching
   factor and only counted.  This is the persistent/sleep-set-style
   reduction: schedules differing only in the order of same-link messages
   are equivalent and explored once. *)
let candidate_heads t ~context ~src ~tag =
  match Hashtbl.find_opt t.unexpected context with
  | None -> ([], 0)
  | Some tbl ->
      let heads, eligible =
        Hashtbl.fold
          (fun k q (heads, eligible) ->
            if src_matches src k.k_src && tag_matches tag k.k_tag && not (Queue.is_empty q)
            then (Queue.peek q :: heads, eligible + Queue.length q)
            else (heads, eligible))
          tbl ([], 0)
      in
      let heads =
        List.sort (fun a b -> compare a.Message.seq b.Message.seq) heads
      in
      (heads, eligible - List.length heads)

(* Apply a resolver decision: match deferred receive [p] with candidate
   [m], which must be the head of its exact-key unexpected queue. *)
let resolve_deferred t (p : posted) (m : Message.t) =
  assert (p.p_deferred && p.p_msg = None);
  (match Hashtbl.find_opt t.unexpected m.Message.context with
  | None -> invalid_arg "Mailbox.resolve_deferred: candidate not queued"
  | Some tbl ->
      let k = { k_src = m.Message.src; k_tag = m.Message.tag } in
      (match Hashtbl.find_opt tbl k with
      | Some q when (not (Queue.is_empty q)) && Queue.peek q == m ->
          ignore (take_head t tbl ~context:m.Message.context k q)
      | _ -> invalid_arg "Mailbox.resolve_deferred: candidate is not a queue head"));
  p.p_deferred <- false;
  match_posted p m

(* Rebuild the posted queue without tombstones.  Amortized O(1): it runs
   only when tombstones outnumber live entries, and each removed entry was
   added exactly once.  Keeping tombstones below the live count matters
   because an unexpected delivery scans the whole queue; with no live
   entries left the queue is simply emptied. *)
let compact_posted t =
  if t.n_posted = 0 then Queue.clear t.posted
  else begin
    let live = Queue.create () in
    Queue.iter (fun p -> if not p.p_dead then Queue.add p live) t.posted;
    Queue.clear t.posted;
    Queue.transfer live t.posted
  end;
  t.n_tombstones <- 0

let drop_posted t (p : posted) =
  if not p.p_dead then begin
    p.p_dead <- true;
    t.n_posted <- t.n_posted - 1;
    t.n_tombstones <- t.n_tombstones + 1;
    if t.n_tombstones > t.n_posted then compact_posted t
  end

(* Cancel a posted receive that has NOT matched.  Per MPI semantics a
   receive that has already been matched must complete — cancelling it
   here would silently drop the matched message. *)
let cancel t p =
  (match p.p_msg with
  | Some m ->
      Errdefs.usage_error
        "Mailbox.cancel: receive already matched message from rank %d (tag %d); a \
         matched receive must be completed, not cancelled"
        m.Message.src m.Message.tag
  | None -> ());
  p.p_cancelled <- true;
  drop_posted t p

(* Once a posted receive has matched, drop it from the posted list. *)
let retire t p = drop_posted t p

let unexpected_depth t = t.n_unexpected

let posted_depth t = t.n_posted

let pending_counts t = (t.n_unexpected, t.n_posted)

(* Structure-size observers for tests: live (key, queue) entries in the
   unexpected index, and physical entries (live + tombstones) in the
   posted queue. *)
let unexpected_key_count t =
  Hashtbl.fold (fun _ tbl acc -> acc + Hashtbl.length tbl) t.unexpected 0

let posted_physical_length t = Queue.length t.posted
