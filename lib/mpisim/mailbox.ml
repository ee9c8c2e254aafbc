(* Per-rank message matching.

   Matching follows MPI semantics: a receive names (context, source, tag),
   where source and tag may be wildcards; messages between a fixed
   (context, source, tag) triple are non-overtaking.  Unexpected messages
   wait in one FIFO per exact key, and global sequence numbers arbitrate
   wildcard matches (oldest message wins, as a sane deterministic
   policy).

   Hot-path data structures are O(1) amortized:

   - a receive whose message is already queued takes it at once and
     needs no record ([take]); one that waits joins a FIFO of posted
     receives chained through the records' own [p_next] links, and
     leaves it when a delivery matches it (the scan knows its
     predecessor), so posting, matching and retiring allocate nothing
     beyond the record; only a cancel walks the FIFO;
   - unexpected messages sit in one flat open-addressing table keyed on
     (context, src, tag), each key's FIFO chained through the messages'
     own [next] links, so queueing and taking a message allocate nothing:
     an exact-key receive is one probe, and a wildcard scans the slots,
     which the table keeps within 8x the live keys;
   - a key whose FIFO drains frees its slot at once (backward-shift
     deletion, no tombstones), so long runs with many distinct (src, tag)
     pairs cannot grow the table without bound. *)

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

type posted = {
  p_context : int;
  p_src : int;  (* may be [any_source] *)
  p_tag : int;  (* may be [any_tag] *)
  p_id : int;
  p_clock : int;  (* receiver's virtual clock when the recv was posted, a stamp *)
  mutable p_msg : Message.t;  (* [Message.nil] until matched *)
  mutable p_live : bool;  (* counted in [posted_depth]: not yet retired or cancelled *)
  mutable p_deferred : bool;  (* model checker owns this match choice *)
  mutable p_next : posted;  (* the next waiting receive, or [no_posted] *)
}

(* No receive: the idle state of a persistent receive between cycles, and
   the end of the waiting FIFO. *)
let rec no_posted =
  {
    p_context = -1;
    p_src = any_source;
    p_tag = any_tag;
    p_id = -1;
    p_clock = 0;
    p_msg = Message.nil;
    p_live = false;
    p_deferred = false;
    p_next = no_posted;
  }

type t = {
  (* The unexpected index: an open-addressing table of (context, src, tag)
     keys, [u_ctx.(i) = -1] for a free slot, each key holding the head and
     tail of its FIFO chained through [Message.next]. *)
  mutable u_ctx : int array;
  mutable u_src : int array;
  mutable u_tag : int array;
  mutable u_head : Message.t array;
  mutable u_tail : Message.t array;
  mutable n_keys : int;  (* live slots *)
  (* The receives waiting for a message, in posting order. *)
  mutable w_head : posted;
  mutable w_tail : posted;
  mutable next_posted_id : int;
  (* O(1) depth counters so the runtime can histogram queue depths without
     walking the structures on every delivery. *)
  mutable n_unexpected : int;
  mutable n_posted : int;  (* receives that waited and are not yet retired *)
  (* Set by the model checker for its own runs only: wildcard receives
     defer their match to the explorer's resolver. *)
  mutable defer_wildcards : bool;
}

let min_slots = 16

let set_defer_wildcards t on = t.defer_wildcards <- on

let defers_wildcards t = t.defer_wildcards

(* The match time — when a synchronous sender may complete — is when both
   the message has arrived AND the receiver was ready for it (stamps take
   their maximum as the times do). *)
let stamp_match (m : Message.t) ~clock =
  m.Message.matched_stamp <- Int.max m.Message.arrival_stamp clock

let posted_matches (p : posted) (m : Message.t) =
  (not p.p_deferred)
  && p.p_context = m.Message.context
  && src_matches p.p_src m.Message.src
  && tag_matches p.p_tag m.Message.tag

let append t p =
  if t.w_tail == no_posted then t.w_head <- p else t.w_tail.p_next <- p;
  t.w_tail <- p

(* Unlink waiting receive [p], whose predecessor is [prev] ([no_posted]
   at the head). *)
let unlink t prev p =
  if prev == no_posted then t.w_head <- p.p_next else prev.p_next <- p.p_next;
  if t.w_tail == p then t.w_tail <- prev;
  p.p_next <- no_posted

(* Unlink [p] wherever it waits, walking from [q] (whose predecessor is
   [prev]); nothing if it does not wait. *)
let rec remove_from t prev q p =
  if q != no_posted then if q == p then unlink t prev p else remove_from t q q.p_next p

(* Deliver [m] to the oldest compatible waiting receive, if any: the scan
   visits the FIFO in posting order and unlinks the first match. *)
let rec match_from t prev p (m : Message.t) =
  if p == no_posted then false
  else if posted_matches p m then begin
    unlink t prev p;
    p.p_msg <- m;
    stamp_match m ~clock:p.p_clock;
    true
  end
  else match_from t p p.p_next m

let try_match_posted t m = match_from t no_posted t.w_head m

(* The table's home slot of a key: an integer mix, masked. *)
let home t ctx src tag =
  let h = ((ctx * 0x2545F491) + (src * 0x9E3779B9) + tag) * 0x4F6CDD1D in
  (h lxor (h lsr 29)) land (Array.length t.u_ctx - 1)

(* Linear probing from slot [i]: the key's slot, or the free slot that
   ends its probe run.  A top-level function, as a local recursive
   closure would allocate on every lookup. *)
let rec probe t i ctx src tag =
  let c = t.u_ctx.(i) in
  if c = -1 || (c = ctx && t.u_src.(i) = src && t.u_tag.(i) = tag) then i
  else probe t ((i + 1) land (Array.length t.u_ctx - 1)) ctx src tag

let slot t ctx src tag = probe t (home t ctx src tag) ctx src tag

let fill t i ctx src tag head tail =
  t.u_ctx.(i) <- ctx;
  t.u_src.(i) <- src;
  t.u_tag.(i) <- tag;
  t.u_head.(i) <- head;
  t.u_tail.(i) <- tail

(* Rebuild the table at [slots] (a power of two) with the same keys. *)
let resize t slots =
  let ctx = t.u_ctx and src = t.u_src and tag = t.u_tag in
  let head = t.u_head and tail = t.u_tail in
  t.u_ctx <- Array.make slots (-1);
  t.u_src <- Array.make slots 0;
  t.u_tag <- Array.make slots 0;
  t.u_head <- Array.make slots Message.nil;
  t.u_tail <- Array.make slots Message.nil;
  Array.iteri
    (fun i c ->
      if c <> -1 then fill t (slot t c src.(i) tag.(i)) c src.(i) tag.(i) head.(i) tail.(i))
    ctx

let create () =
  {
    u_ctx = Array.make min_slots (-1);
    u_src = Array.make min_slots 0;
    u_tag = Array.make min_slots 0;
    u_head = Array.make min_slots Message.nil;
    u_tail = Array.make min_slots Message.nil;
    n_keys = 0;
    w_head = no_posted;
    w_tail = no_posted;
    next_posted_id = 0;
    n_unexpected = 0;
    n_posted = 0;
    defer_wildcards = false;
  }

let enqueue_unexpected t (m : Message.t) =
  let ctx = m.Message.context and src = m.Message.src and tag = m.Message.tag in
  let i = slot t ctx src tag in
  if t.u_ctx.(i) = -1 then begin
    fill t i ctx src tag m m;
    t.n_keys <- t.n_keys + 1;
    if 2 * t.n_keys > Array.length t.u_ctx then resize t (2 * Array.length t.u_ctx)
  end
  else begin
    t.u_tail.(i).Message.next <- m;
    t.u_tail.(i) <- m
  end;
  t.n_unexpected <- t.n_unexpected + 1

(* Entry point for the runtime: a message has arrived at this rank.
   Returns [true] if the message matched an already-posted receive. *)
let deliver t (m : Message.t) =
  if try_match_posted t m then true
  else begin
    enqueue_unexpected t m;
    false
  end

(* Backward-shift deletion: [hole] is free; walk its probe run from [j]
   and move back every key whose home does not lie in (hole, j], so no
   lookup ever meets a gap and no tombstone is left. *)
let rec close_hole t hole j =
  let mask = Array.length t.u_ctx - 1 in
  let c = t.u_ctx.(j) and src = t.u_src.(j) and tag = t.u_tag.(j) in
  if c = -1 then fill t hole (-1) 0 0 Message.nil Message.nil
  else if (j - home t c src tag) land mask >= (j - hole) land mask then begin
    fill t hole c src tag t.u_head.(j) t.u_tail.(j);
    close_hole t j ((j + 1) land mask)
  end
  else close_hole t hole ((j + 1) land mask)

(* Pop the head of slot [i]'s FIFO; a key that drains frees its slot at
   once, and a table below load 1/8 halves (never below [min_slots]). *)
let take_head t i =
  let m = t.u_head.(i) in
  let next = m.Message.next in
  m.Message.next <- Message.nil;
  t.n_unexpected <- t.n_unexpected - 1;
  if next != Message.nil then t.u_head.(i) <- next
  else begin
    t.n_keys <- t.n_keys - 1;
    let slots = Array.length t.u_ctx in
    close_hole t i ((i + 1) land (slots - 1));
    if slots > min_slots && 8 * t.n_keys < slots then resize t (slots / 2)
  end;
  m

let matches_slot t i ~context ~src ~tag =
  t.u_ctx.(i) = context && src_matches src t.u_src.(i) && tag_matches tag t.u_tag.(i)

(* The slot of the oldest head a wildcard pattern matches from slot [i]
   on, or [best]. *)
let rec oldest_from t i ~context ~src ~tag best =
  if i = Array.length t.u_ctx then best
  else if
    matches_slot t i ~context ~src ~tag
    && (best < 0 || t.u_head.(i).Message.seq < t.u_head.(best).Message.seq)
  then oldest_from t (i + 1) ~context ~src ~tag i
  else oldest_from t (i + 1) ~context ~src ~tag best

(* The slot whose head is the oldest unexpected message matching the
   (context, src, tag) pattern, or -1: one probe for an exact pattern, a
   scan of the slots for a wildcard. *)
let find_slot t ~context ~src ~tag =
  if src <> any_source && tag <> any_tag then begin
    let i = slot t context src tag in
    if t.u_ctx.(i) = -1 then -1 else i
  end
  else oldest_from t 0 ~context ~src ~tag (-1)

(* Find (and optionally remove) the oldest unexpected message matching the
   (context, src, tag) pattern. *)
let find_unexpected ?(remove = true) t ~context ~src ~tag =
  let i = find_slot t ~context ~src ~tag in
  if i < 0 then None else Some (if remove then take_head t i else t.u_head.(i))

(* The oldest unexpected message with exactly this key, left queued, found
   without allocating (for polls); raises [Not_found] if there is none. *)
let head_exact t ~context ~src ~tag =
  let i = slot t context src tag in
  if t.u_ctx.(i) = -1 then raise Not_found else t.u_head.(i)

let rec chain_length (m : Message.t) n =
  if m == Message.nil then n else chain_length m.Message.next (n + 1)

(* Number of unexpected messages a (context, src, tag) pattern could match
   right now.  The sanitizer's wildcard-race check calls this (heavy level
   only) just before posting a wildcard receive: two or more eligible
   candidates mean the match is arbitrated by sequence number — i.e. by the
   schedule — and a real MPI run could return a different message. *)
let count_eligible t ~context ~src ~tag =
  let n = ref 0 in
  for i = 0 to Array.length t.u_ctx - 1 do
    if matches_slot t i ~context ~src ~tag then n := chain_length t.u_head.(i) !n
  done;
  !n

(* A receive at receiver-clock [clock] (a stamp), in two halves.  Under
   the model checker ([defer_wildcards]), wildcard receives are NOT
   matched eagerly: the match is the decision point being explored, so
   the receive waits as deferred and the explorer's quiescence resolver
   picks among the candidates.  Exact (src, tag) receives stay eager —
   non-overtaking makes their match unique, so deferring them would only
   multiply equivalent schedules.

   [take]: the oldest queued message the receive matches at once, taken
   off its FIFO with its match time set and a receive id spent on it
   ([last_posted_id]); or [Message.nil], with nothing spent.  A receive
   that takes its message this way needs no record. *)
let defers t ~src ~tag = t.defer_wildcards && (src = any_source || tag = any_tag)

let take t ~context ~src ~tag ~clock =
  let i = if defers t ~src ~tag then -1 else find_slot t ~context ~src ~tag in
  if i < 0 then Message.nil
  else begin
    t.next_posted_id <- t.next_posted_id + 1;
    let m = take_head t i in
    stamp_match m ~clock;
    m
  end

let last_posted_id t = t.next_posted_id - 1

(* [enqueue]: a receive that found nothing to [take] waits at the tail of
   the FIFO, for a delivery to match it. *)
let enqueue t ~context ~src ~tag ~clock =
  let p =
    {
      p_context = context;
      p_src = src;
      p_tag = tag;
      p_id = t.next_posted_id;
      p_clock = clock;
      p_msg = Message.nil;
      p_live = true;
      p_deferred = defers t ~src ~tag;
      p_next = no_posted;
    }
  in
  t.next_posted_id <- t.next_posted_id + 1;
  append t p;
  t.n_posted <- t.n_posted + 1;
  p

(* Both halves, for callers that need a record either way: a receive that
   takes its message at once gets one born retired, so retiring it leaves
   the live count alone. *)
let post_at t ~context ~src ~tag ~clock =
  let m = take t ~context ~src ~tag ~clock in
  if m == Message.nil then enqueue t ~context ~src ~tag ~clock
  else
    {
      p_context = context;
      p_src = src;
      p_tag = tag;
      p_id = last_posted_id t;
      p_clock = clock;
      p_msg = m;
      p_live = false;
      p_deferred = false;
      p_next = no_posted;
    }

(* [post_at] at a clock given as a float, as tests and benchmarks post. *)
let post t ~context ~src ~tag ~now = post_at t ~context ~src ~tag ~clock:(Message.stamp now)

(* ---- Model-checker resolver API (only used under [defer_wildcards]) ---- *)

(* Visit every live deferred receive, in posting order. *)
let iter_deferred t f =
  let rec go p =
    if p != no_posted then begin
      let next = p.p_next in
      if p.p_deferred then f p;
      go next
    end
  in
  go t.w_head

(* The candidate set for a deferred receive: the *heads* of each matching
   per-(src, tag) FIFO, sorted by global seq.  Non-head messages in those
   FIFOs are unreachable choices — MPI non-overtaking forces the head of
   each FIFO to match first — so they are pruned from the branching
   factor and only counted.  This is the persistent/sleep-set-style
   reduction: schedules differing only in the order of same-link messages
   are equivalent and explored once. *)
let candidate_heads t ~context ~src ~tag =
  let heads = ref [] and eligible = ref 0 in
  for i = 0 to Array.length t.u_ctx - 1 do
    if matches_slot t i ~context ~src ~tag then begin
      heads := t.u_head.(i) :: !heads;
      eligible := chain_length t.u_head.(i) !eligible
    end
  done;
  let heads = List.sort (fun a b -> compare a.Message.seq b.Message.seq) !heads in
  (heads, !eligible - List.length heads)

(* Apply a resolver decision: match deferred receive [p] with candidate
   [m], which must be the head of its exact-key unexpected FIFO. *)
let resolve_deferred t (p : posted) (m : Message.t) =
  assert (p.p_deferred && p.p_msg == Message.nil);
  let i = slot t m.Message.context m.Message.src m.Message.tag in
  if t.u_ctx.(i) = -1 || t.u_head.(i) != m then
    invalid_arg "Mailbox.resolve_deferred: candidate is not a queue head";
  ignore (take_head t i);
  p.p_deferred <- false;
  remove_from t no_posted t.w_head p;
  p.p_msg <- m;
  stamp_match m ~clock:p.p_clock

(* Retire or cancel: a receive still waiting leaves the FIFO. *)
let drop_posted t (p : posted) =
  if p.p_live then begin
    p.p_live <- false;
    if p.p_msg == Message.nil then remove_from t no_posted t.w_head p;
    t.n_posted <- t.n_posted - 1
  end

(* Cancel a posted receive that has NOT matched.  Per MPI semantics a
   receive that has already been matched must complete — cancelling it
   here would silently drop the matched message. *)
let cancel t p =
  let m = p.p_msg in
  if m != Message.nil then
    Errdefs.usage_error
      "Mailbox.cancel: receive already matched message from rank %d (tag %d); a matched \
       receive must be completed, not cancelled"
      m.Message.src m.Message.tag;
  drop_posted t p

(* Once a posted receive has matched, drop it from the posted list. *)
let retire t p = drop_posted t p

let unexpected_depth t = t.n_unexpected

let posted_depth t = t.n_posted

let pending_counts t = (t.n_unexpected, t.n_posted)

(* Structure-size observers for tests: live keys and slots of the
   unexpected index, and the receives in the waiting FIFO. *)
let unexpected_key_count t = t.n_keys

let unexpected_slots t = Array.length t.u_ctx

let posted_physical_length t =
  let rec go p n = if p == no_posted then n else go p.p_next (n + 1) in
  go t.w_head 0
