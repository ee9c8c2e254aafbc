(* Post-run analysis of the virtual-time accounting and the event trace.

   Two views:

   - [pp_utilization]: per-rank busy / blocked / idle breakdown.  This
     needs no trace: the runtime splits every clock movement into busy
     (charged cost) and blocked (sync jump), and idle is the tail between
     a rank's finish time and the makespan.

   - [critical_path]: the cross-rank causal chain that bounds the
     makespan.  Starting from the rank that finished last, walk backwards
     through "match_wait" instants (a receive that actually waited) to
     the send that released it, hop to the sending rank, and repeat.
     Every edge is verified against the send table (source rank, byte
     count, timestamp order, Lamport order) before the walk crosses it,
     and annotated with its latency and the receiver's wait slack.  Each
     hop is named after the tightest enclosing traced span (collective,
     kamping call or p2p op) so the report reads as "rank 3 waited in
     allgatherv for rank 1", not as raw message sequence numbers. *)

let pct ~of_ v = if of_ <= 0. then 0. else 100. *. v /. of_

let pp_utilization ppf ~busy ~blocked ~times ~max_time =
  let n = Array.length times in
  Format.fprintf ppf "rank        busy           blocked        idle@.";
  for r = 0 to n - 1 do
    let idle = Float.max 0. (max_time -. times.(r)) in
    Format.fprintf ppf "%4d  %9s (%5.1f%%) %9s (%5.1f%%) %9s (%5.1f%%)@." r
      (Sim_time.to_string busy.(r))
      (pct ~of_:max_time busy.(r))
      (Sim_time.to_string blocked.(r))
      (pct ~of_:max_time blocked.(r))
      (Sim_time.to_string idle)
      (pct ~of_:max_time idle)
  done;
  let total f = Array.fold_left ( +. ) 0. f in
  let denom = float_of_int (Int.max 1 n) *. max_time in
  Format.fprintf ppf "mean  busy %.1f%%  blocked %.1f%%  idle %.1f%%  (makespan %s)@."
    (pct ~of_:denom (total busy))
    (pct ~of_:denom (total blocked))
    (pct ~of_:denom (Float.max 0. (denom -. total busy -. total blocked)))
    (Sim_time.to_string max_time)

(* ------------------------------------------------------------------ *)
(* Critical path *)

type hop = {
  hop_rank : int;
  hop_from : float;  (* start of the segment on this rank *)
  hop_to : float;  (* end of the segment (= previous hop's trigger) *)
  hop_name : string;  (* "cat/name" of the tightest enclosing span *)
  via_src : int;  (* sender that released this rank; -1 for the first segment *)
  via_seq : int;
  via_bytes : int;
  via_latency : float;  (* match ts minus send ts of the releasing message *)
  via_slack : float;  (* how long the receiver had been parked before the match *)
  via_verified : bool;  (* the edge is a checked send->recv pair (see below) *)
}


(* Name the operation active at time [at]: the tightest enclosing span,
   preferring semantic layers (coll/kamping/timer) over raw p2p ops. *)
let name_at spans ~at =
  let best = ref None in
  List.iter
    (fun (lo, hi, cat, name) ->
      let pri =
        match cat with
        | "coll" | "kamping" | "timer" -> 0
        | "p2p" -> 1
        | _ -> 2
      in
      if pri < 2 && lo <= at && at <= hi then begin
        let key = (pri, hi -. lo) in
        match !best with
        | Some (bkey, _) when bkey <= key -> ()
        | _ -> best := Some (key, cat ^ "/" ^ name)
      end)
    spans;
  match !best with Some (_, n) -> n | None -> "compute"

let max_hops = 64

(* The cross-rank causal walk.

   A rank's finish time is bounded by the chain of binding waits: walking
   back from the last-finishing rank, each "match_wait" instant (a
   receive that actually blocked) was released by exactly one send, whose
   timestamp on the sending rank the walk jumps to.  Because a
   "match_wait" is emitted only when the arrival time exceeded the
   receiver's clock, the segment between two binding waits on a rank is
   pure local progress — so the chain of latest binding waits is the
   longest (critical) path through the send->recv DAG, not merely a
   heuristic.

   Each edge is verified against the global send table before the walk
   crosses it: the send event for the message sequence number must exist,
   name the receiver's claimed source rank, carry the same byte count,
   precede the match in time, and (when both sides stamped Lamport
   clocks) have a strictly smaller Lamport value.  An edge failing any of
   these (an evicted ring entry, a corrupted trace) ends the walk rather
   than fabricating causality. *)

type send_site = { snd_rank : int; snd_ts : float; snd_bytes : int; snd_lamport : int }

(* One fold over the trace gathers what the walk reads: the global send
   table (message seq -> send site), each rank's match_wait and park
   instants (newest first), and each rank's span intervals.  Eviction can
   orphan an End (its Begin was dropped) — such Ends are skipped; Begins
   still open at the end of the run close at the rank's finish time. *)
let path tr ~times =
  let ranks = Trace.ranks tr in
  let sends = Hashtbl.create 1024 in
  let waits = Array.make ranks [] and parks = Array.make ranks [] in
  let spans = Array.make ranks [] and stacks = Array.make ranks [] in
  let add n r (ev : Trace_stream.event) =
    (match ev.kind with
    | Begin -> stacks.(r) <- (ev.cat, ev.name, ev.ts) :: stacks.(r)
    | End -> (
        match stacks.(r) with
        | (cat, name, t0) :: rest ->
            stacks.(r) <- rest;
            spans.(r) <- (t0, ev.ts, cat, name) :: spans.(r)
        | [] -> ())
    | Complete -> spans.(r) <- (ev.ts -. ev.dur, ev.ts, ev.cat, ev.name) :: spans.(r)
    | Instant ->
        if ev.cat = "sim" then begin
          if ev.name = "send" then
            Hashtbl.replace sends ev.b
              { snd_rank = r; snd_ts = ev.ts; snd_bytes = ev.c; snd_lamport = ev.d }
          else if ev.name = "match_wait" then waits.(r) <- ev :: waits.(r)
        end
        else if ev.cat = "sched" && ev.name = "park" then parks.(r) <- ev.ts :: parks.(r));
    n + 1
  in
  match Trace.fold tr ~init:0 ~f:add with
  | Error _ as e -> e
  | Ok 0 -> Ok []
  | Ok _ ->
      Array.iteri
        (fun r stack ->
          List.iter
            (fun (cat, name, t0) -> spans.(r) <- (t0, times.(r), cat, name) :: spans.(r))
            stack)
        stacks;
      let finish = ref 0 in
      Array.iteri (fun i v -> if v > times.(!finish) then finish := i) times;
      let hops = ref [] in
      let rec walk rank t budget =
        match List.find_opt (fun (ev : Trace_stream.event) -> ev.ts <= t) waits.(rank) with
        | None ->
            hops :=
              {
                hop_rank = rank;
                hop_from = 0.;
                hop_to = t;
                hop_name = name_at spans.(rank) ~at:t;
                via_src = -1;
                via_seq = -1;
                via_bytes = -1;
                via_latency = -1.;
                via_slack = -1.;
                via_verified = false;
              }
              :: !hops
        | Some m ->
            let site = Hashtbl.find_opt sends m.b in
            let verified =
              match site with
              | Some s ->
                  s.snd_rank = m.a && s.snd_ts <= m.ts
                  && s.snd_bytes = m.c
                  && (s.snd_lamport < 0 || m.d < 0 || s.snd_lamport < m.d)
              | None -> false
            in
            (* Slack: how long the receiver had already been parked when the
               message arrived — the headroom a faster sender would buy. *)
            let slack =
              match List.find_opt (fun p -> p <= m.ts) parks.(rank) with
              | Some p -> m.ts -. p
              | None -> -1.
            in
            let latency = match site with Some s -> m.ts -. s.snd_ts | None -> -1. in
            hops :=
              {
                hop_rank = rank;
                hop_from = m.ts;
                hop_to = t;
                hop_name = name_at spans.(rank) ~at:m.ts;
                via_src = m.a;
                via_seq = m.b;
                via_bytes = m.c;
                via_latency = latency;
                via_slack = slack;
                via_verified = verified;
              }
              :: !hops;
            if budget > 0 && verified then begin
              match site with
              | Some s when s.snd_ts < m.ts ->
                  (* Strictly decreasing time, so the walk terminates even
                     on malformed traces. *)
                  walk s.snd_rank s.snd_ts (budget - 1)
              | _ -> () (* a zero-latency self-edge: stop rather than loop *)
            end
      in
      walk !finish times.(!finish) max_hops;
      Ok !hops (* prepended finish-first, so this is start -> finish order *)

let critical_path tr ~times = Result.value (path tr ~times) ~default:[]

(* How many cross-rank edges of a critical path failed verification
   against the send table.  Published as the [obs.causal.unverified_edges]
   counter: nonzero means the causal chain shown to the user contains
   hops the trace could not prove. *)
let unverified_edges hops =
  List.length (List.filter (fun h -> h.via_src >= 0 && not h.via_verified) hops)

let pp_critical_path ppf tr ~times =
  match path tr ~times with
  | Error msg -> Format.fprintf ppf "critical path: cannot read the trace: %s@." msg
  | Ok [] -> Format.fprintf ppf "critical path: no trace events recorded@."
  | Ok hops ->
      let finish = List.length hops - 1 in
      let edges = List.filter (fun h -> h.via_src >= 0) hops in
      let verified = List.filter (fun h -> h.via_verified) edges in
      Format.fprintf ppf
        "critical path (%d hops, %d/%d edges verified send->recv, finish at %s):@."
        (List.length hops) (List.length verified) (List.length edges)
        (Sim_time.to_string
           (List.fold_left (fun acc h -> Float.max acc h.hop_to) 0. hops));
      List.iteri
        (fun i h ->
          Format.fprintf ppf "  %2d. rank %d  [%s .. %s]  %s" i h.hop_rank
            (Sim_time.to_string h.hop_from)
            (Sim_time.to_string h.hop_to)
            h.hop_name;
          if h.via_src >= 0 then begin
            Format.fprintf ppf "  (released by %d B msg #%d from rank %d" h.via_bytes
              h.via_seq h.via_src;
            if h.via_latency >= 0. then
              Format.fprintf ppf ", latency %s" (Sim_time.to_string h.via_latency);
            if h.via_slack >= 0. then
              Format.fprintf ppf ", waited %s" (Sim_time.to_string h.via_slack);
            Format.fprintf ppf "%s)" (if h.via_verified then "" else ", UNVERIFIED")
          end
          else if i <> finish then Format.fprintf ppf "  (start of chain)";
          Format.fprintf ppf "@.")
        hops;
      let total_slack =
        List.fold_left (fun acc h -> if h.via_slack > 0. then acc +. h.via_slack else acc)
          0. edges
      in
      if edges <> [] then
        Format.fprintf ppf "  total wait slack along the path: %s@."
          (Sim_time.to_string total_slack);
      if Trace.total_dropped tr > 0 then
        Format.fprintf ppf "  (ring buffers dropped %d events; path may be truncated)@."
          (Trace.total_dropped tr)
