(* Mpicheck: an opt-in MUST-style correctness sanitizer for the runtime.

   Four check classes, selected by level:

   - collective consistency (light): all ranks of a communicator must
     issue the same collective kinds in the same order with agreeing
     root / element type; the first divergent rank is reported together
     with both call sites;
   - request lifecycle (light): non-blocking requests must be completed
     exactly once — leaks are reported at finalize, waiting an
     already-completed (inactive) request is reported at the wait site;
   - deadlock diagnosis (light): when the scheduler trips its deadlock
     detector, the per-rank pending-operation table is turned into a
     wait-for graph and the shortest cycle is printed with each edge
     named, instead of the flat parked list;
   - wildcard determinism (heavy): an ANY_SOURCE / ANY_TAG receive that
     had two or more eligible matches at match time is recorded — the
     run's result is schedule-dependent.  This check counts and logs but
     does not raise: wildcard races are a determinism diagnostic, not a
     program error.

   The checker is wired into the runtime the same way [Trace] is: it is
   created with the runtime and does nothing at level [Off] — every hook
   is guarded by [enabled]/[heavy] at the call site so the off path costs
   one load and branch and allocates nothing.

   Diagnostics flow through the [Stats] registry (one counter per check
   class, prefix "check."), through [Trace] (an instant event at each
   violation site, category "check") and violations raise
   [Errdefs.Check_violation]. *)

let log_src = Logs.Src.create "mpisim.check" ~doc:"Correctness sanitizer findings"

module Log = (val Logs.src_log log_src : Logs.LOG)

type level = Off | Light | Heavy

let level_to_string = function Off -> "off" | Light -> "light" | Heavy -> "heavy"

let level_of_string = function
  | "off" -> Some Off
  | "light" -> Some Light
  | "heavy" -> Some Heavy
  | _ -> None

(* Pending blocking operation of a rank, for the wait-for graph.  Ranks
   and peers are world ranks; [src = -1] is a wildcard receive. *)
type waiting =
  | Wrecv of { src : int; tag : int; ctx : int; op : string }
  | Wssend of { dst : int; tag : int; op : string }

(* One slot of a communicator's collective schedule: what the first rank
   to reach call #i issued there. *)
type coll_entry = { ce_op : string; ce_root : int; ce_ty : string; ce_rank : int }

type coll_state = {
  mutable cs_entries : coll_entry array;
  mutable cs_len : int;
  cs_next : (int, int) Hashtbl.t;  (* comm rank -> next call index *)
}

type tracked = { tk_req : Request.t; tk_rank : int; tk_kind : string }

type t = {
  mutable level : level;
  stats : Stats.t;
  trace : Trace.t;
  colls : (int, coll_state) Hashtbl.t;  (* context id -> schedule *)
  mutable tracked : tracked list;  (* newest first *)
  waiting : waiting option array;  (* per world rank *)
  mutable violations : int;
}

let create ~stats ~trace ~size () =
  {
    level = Off;
    stats;
    trace;
    colls = Hashtbl.create 8;
    tracked = [];
    waiting = Array.make size None;
    violations = 0;
  }

let level t = t.level

let set_level t l = t.level <- l

let enabled t = t.level <> Off

let heavy t = t.level = Heavy

let violations t = t.violations

(* Record a finding: bump the per-class counter, mark the violation site
   on the trace, and log it.  [raise]-ing is the caller's decision. *)
let record t ~rank ~counter ~name =
  t.violations <- t.violations + 1;
  Stats.incr (Stats.counter t.stats ("check." ^ counter));
  if rank >= 0 && rank < Array.length t.waiting then
    Trace.instant t.trace ~rank ~cat:"check" ~name ~a:(-1) ~b:(-1) ~c:(-1)

let violation t ~rank ~counter ~check fmt =
  Printf.ksprintf
    (fun msg ->
      record t ~rank ~counter ~name:check;
      Log.err (fun f -> f "%s: rank %d: %s" check rank msg);
      raise (Errdefs.Check_violation { check; rank; msg }))
    fmt

(* ------------------------------------------------------------------ *)
(* (a) Collective call-order consistency *)

let coll_state t ~context =
  match Hashtbl.find_opt t.colls context with
  | Some s -> s
  | None ->
      let s = { cs_entries = [||]; cs_len = 0; cs_next = Hashtbl.create 8 } in
      Hashtbl.replace t.colls context s;
      s

let describe_call (e : coll_entry) =
  let b = Buffer.create 32 in
  Buffer.add_string b e.ce_op;
  Buffer.add_char b '(';
  if e.ce_root >= 0 then Buffer.add_string b (Printf.sprintf "root=%d" e.ce_root);
  if e.ce_ty <> "" then begin
    if e.ce_root >= 0 then Buffer.add_string b ", ";
    Buffer.add_string b ("ty=" ^ e.ce_ty)
  end;
  Buffer.add_char b ')';
  Buffer.contents b

(* Rank [rank] of communicator [context] issues its next collective.
   The first rank to reach call #i defines the schedule slot; everyone
   else must agree on kind, root and element type. *)
let on_collective t ~context ~rank ~world_rank ~op ~root ~ty =
  if t.level <> Off then begin
    let s = coll_state t ~context in
    let idx = match Hashtbl.find_opt s.cs_next rank with Some i -> i | None -> 0 in
    Hashtbl.replace s.cs_next rank (idx + 1);
    let mine = { ce_op = op; ce_root = root; ce_ty = ty; ce_rank = rank } in
    if idx < s.cs_len then begin
      let first = s.cs_entries.(idx) in
      if first.ce_op <> op || first.ce_root <> root || first.ce_ty <> ty then
        violation t ~rank:world_rank ~counter:"collective_mismatch" ~check:"collective"
          "collective call-order mismatch on communicator context %d, call #%d:\n\
          \  rank %d issued %s\n\
          \  rank %d issued %s\n\
           All ranks of a communicator must issue the same collectives in the same \
           order with agreeing root and element type."
          context idx first.ce_rank (describe_call first) rank (describe_call mine)
    end
    else begin
      if s.cs_len >= Array.length s.cs_entries then begin
        let cap = Int.max 16 (2 * Array.length s.cs_entries) in
        let bigger = Array.make cap mine in
        Array.blit s.cs_entries 0 bigger 0 s.cs_len;
        s.cs_entries <- bigger
      end;
      s.cs_entries.(s.cs_len) <- mine;
      s.cs_len <- s.cs_len + 1
    end
  end

(* At finalize: every rank that participated in a context must have
   issued the same number of collectives (a shorter schedule means a rank
   skipped trailing collectives its peers are matching against). *)
let check_coll_counts t =
  Hashtbl.iter
    (fun context s ->
      if s.cs_len > 0 then begin
        let lo = ref max_int and lo_rank = ref (-1) in
        let hi = ref 0 and hi_rank = ref (-1) in
        Hashtbl.iter
          (fun rank n ->
            if n < !lo then begin
              lo := n;
              lo_rank := rank
            end;
            if n > !hi then begin
              hi := n;
              hi_rank := rank
            end)
          s.cs_next;
        if !lo <> !hi then
          violation t ~rank:!lo_rank ~counter:"collective_mismatch" ~check:"collective"
            "collective count mismatch on communicator context %d at finalize: rank %d \
             issued %d collectives but rank %d issued %d (last schedule entry: %s)"
            context !lo_rank !lo !hi_rank !hi
            (describe_call s.cs_entries.(s.cs_len - 1))
      end)
    t.colls

(* ------------------------------------------------------------------ *)
(* (b) Request lifecycle *)

(* Track a freshly created non-blocking request.  Also attaches the
   re-wait observer: waiting a request that has already completed is
   MPI's "wait on an inactive request" — MUST-style tools flag it as use
   of a freed request. *)
let track_request t ~rank ~kind req =
  if t.level <> Off then begin
    t.tracked <- { tk_req = req; tk_rank = rank; tk_kind = kind } :: t.tracked;
    Request.set_observer req
      {
        Request.on_rewait =
          (fun () ->
            violation t ~rank ~counter:"double_wait" ~check:"double-wait"
              "wait on an already-completed %s request (%s): a request must be \
               completed exactly once; a second wait would read a freed request in \
               MPI"
              kind (Request.describe req));
      }
  end

(* Leak scan, run at engine teardown of a clean run: every tracked request
   must have been completed by wait/test. *)
let check_request_leaks t =
  let leaked =
    List.filter (fun tk -> not (Request.is_complete tk.tk_req)) (List.rev t.tracked)
  in
  match leaked with
  | [] -> ()
  | first :: _ ->
      let describe tk =
        Printf.sprintf "  rank %d: %s (%s)" tk.tk_rank tk.tk_kind
          (Request.describe tk.tk_req)
      in
      let shown = List.filteri (fun i _ -> i < 8) leaked in
      let more = List.length leaked - List.length shown in
      violation t ~rank:first.tk_rank ~counter:"request_leak" ~check:"request-leak"
        "%d non-blocking request%s never completed (leaked at finalize):\n%s%s\n\
         Every isend/issend/irecv/non-blocking collective must be completed with \
         wait or test before the program ends."
        (List.length leaked)
        (if List.length leaked = 1 then " was" else "s were")
        (String.concat "\n" (List.map describe shown))
        (if more > 0 then Printf.sprintf "\n  ... and %d more" more else "")

(* Send-buffer integrity (heavy): hash the buffer when the send is posted
   and again at completion; a difference means the program mutated a
   buffer it no longer owned.  The hash samples large structures
   (Hashtbl.hash_param), so this is a probabilistic but allocation-free
   detector. *)
let buffer_hash (data : 'a) = Hashtbl.hash_param 256 1024 data

let check_send_buffer t ~rank ~op ~posted ~now =
  if posted <> now then
    violation t ~rank ~counter:"send_buffer_modified" ~check:"send-buffer"
      "%s buffer was modified while the send was in flight (hash %#x at post, %#x \
       at completion): a non-blocking send transfers ownership of the buffer until \
       the operation completes"
      op posted now

(* ------------------------------------------------------------------ *)
(* (c) Deadlock diagnosis *)

let set_waiting t ~rank w = t.waiting.(rank) <- Some w

let clear_waiting t ~rank = t.waiting.(rank) <- None

let describe_waiting = function
  | Wrecv { src; tag; ctx; op } ->
      let tag = if tag < 0 then "any" else Coll_algo.describe_tag tag in
      if src < 0 then Printf.sprintf "%s(src=any, tag=%s, ctx=%d)" op tag ctx
      else Printf.sprintf "%s(src=%d, tag=%s, ctx=%d)" op src tag ctx
  | Wssend { dst; tag; op } ->
      Printf.sprintf "%s(dst=%d, tag=%s)" op dst (Coll_algo.describe_tag tag)

(* The rank this pending op is waiting on, if deterministic. *)
let waits_on = function
  | Wrecv { src; _ } -> if src >= 0 then Some src else None
  | Wssend { dst; _ } -> Some dst

(* Find the shortest wait-for cycle among the parked ranks.  Each rank has
   at most one outgoing edge, so every connected component contains at
   most one cycle; we walk from every parked rank and keep the shortest
   cycle discovered. *)
let find_cycle t (parked : (int * string) list) : int list option =
  let n = Array.length t.waiting in
  let parked_set = Array.make n false in
  List.iter (fun (r, _) -> if r >= 0 && r < n then parked_set.(r) <- true) parked;
  let succ r =
    if r < 0 || r >= n || not parked_set.(r) then None
    else
      match t.waiting.(r) with
      | Some w -> (
          match waits_on w with
          | Some peer when peer >= 0 && peer < n && parked_set.(peer) -> Some peer
          | _ -> None)
      | None -> None
  in
  let visited = Array.make n false in
  let best = ref None in
  List.iter
    (fun (start, _) ->
      if start >= 0 && start < n && not visited.(start) then begin
        (* Walk the (functional) successor chain, recording positions. *)
        let pos = Hashtbl.create 8 in
        let rec walk r i path =
          match Hashtbl.find_opt pos r with
          | Some j ->
              (* Cycle: the suffix of [path] from position j. *)
              let cycle = List.filteri (fun k _ -> k >= j) (List.rev path) in
              let len = List.length cycle in
              (match !best with
              | Some b when List.length b <= len -> ()
              | _ -> best := Some cycle)
          | None ->
              if not visited.(r) then begin
                visited.(r) <- true;
                Hashtbl.replace pos r i;
                match succ r with
                | Some peer -> walk peer (i + 1) (r :: path)
                | None -> ()
              end
        in
        walk start 0 []
      end)
    parked;
  !best

(* Build the upgrade of the scheduler's flat deadlock report: the named
   shortest wait-for cycle when one exists, the per-rank pending ops
   otherwise. *)
let deadlock_report t ~parked ~finished ~total =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "deadlock: %d/%d fibers finished, %d parked with no possible progress.\n"
       finished total (List.length parked));
  (match find_cycle t parked with
  | Some cycle ->
      record t ~rank:(List.hd cycle) ~counter:"deadlock" ~name:"deadlock";
      Buffer.add_string b
        (Printf.sprintf "wait-for cycle (%d ranks):\n" (List.length cycle));
      let arr = Array.of_list cycle in
      Array.iteri
        (fun i r ->
          let peer = arr.((i + 1) mod Array.length arr) in
          let opdesc =
            match t.waiting.(r) with
            | Some w -> describe_waiting w
            | None -> "blocked"
          in
          let peerdesc =
            match t.waiting.(peer) with
            | Some w -> describe_waiting w
            | None -> "blocked"
          in
          Buffer.add_string b
            (Printf.sprintf "  rank %d %s <- rank %d %s\n" r opdesc peer peerdesc))
        arr
  | None ->
      record t ~rank:(match parked with (r, _) :: _ -> r | [] -> 0)
        ~counter:"deadlock" ~name:"deadlock";
      Buffer.add_string b "no deterministic wait-for cycle; pending operations:\n";
      List.iter
        (fun (r, desc) ->
          let opdesc =
            match t.waiting.(r) with
            | Some w -> describe_waiting w
            | None -> desc
          in
          Buffer.add_string b (Printf.sprintf "  rank %d: %s\n" r opdesc))
        parked);
  Buffer.add_string b "parked fibers:\n";
  List.iter
    (fun (r, desc) -> Buffer.add_string b (Printf.sprintf "  rank %d: %s\n" r desc))
    parked;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Payload integrity (chaos plane): the reliable layer's CRC failed at
   the receiver.  With corruption modelled as loss this never fires; it
   exists as the backstop for the chaos plane's [deliver_corrupt] test
   mode and for genuine data-plane bugs (a recycled slice read after
   free would surface here). *)

let on_crc_mismatch t ~rank ~src ~expected ~got =
  violation t ~rank ~counter:"crc_mismatch" ~check:"crc"
    "payload CRC mismatch on message from rank %d (expected %#x, got %#x): the \
     payload was corrupted between injection and receive"
    src expected got

(* ------------------------------------------------------------------ *)
(* (d) Wildcard-match determinism (heavy) *)

(* An ANY_SOURCE / ANY_TAG receive matched while [eligible] messages were
   simultaneously eligible: with [eligible >= 2] the outcome depends on
   arrival order, i.e. on the schedule.  Recorded, not raised. *)
let on_wildcard_match t ~rank ~src ~tag ~eligible =
  if eligible >= 2 then begin
    record t ~rank ~counter:"wildcard_race" ~name:"wildcard_race";
    Log.warn (fun f ->
        f
          "wildcard race on rank %d: recv(src=%s, tag=%s) had %d eligible messages \
           at match time; the result is schedule-dependent"
          rank
          (if src < 0 then "any" else string_of_int src)
          (if tag < 0 then "any" else string_of_int tag)
          eligible)
  end

(* ------------------------------------------------------------------ *)

(* Finalize-time scan, run by the engine after a clean (non-aborted,
   no-kills) run: leaked requests and diverging collective counts. *)
let finalize_scan t =
  if t.level <> Off then begin
    check_request_leaks t;
    check_coll_counts t
  end
