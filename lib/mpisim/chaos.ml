(* The chaos plane: a seeded, fully deterministic fault-injection engine.

   Everything random is drawn from one xoshiro256** stream in simulation
   order; because the scheduler is deterministic round-robin, identical
   (seed, fault plan, program) triples replay the exact same chaos event
   sequence — the event log is byte-identical across runs.

   The module owns fault *decisions*; the runtime *acts* on them (kills
   ranks, adjusts arrival times, raises errors), so [Chaos] depends only
   on the model/PRNG/observability layers and never on [Runtime].

   Reliable delivery is modelled at injection time: a simulated send is a
   synchronous call, so instead of literally re-entering the network we
   roll the per-attempt faults in a loop — each lost or corrupted attempt
   adds an exponential-backoff timeout to the arrival time and a
   retransmission to the sender's costs; when the attempt budget is
   exhausted the transfer escalates (the sender's failure detector
   declares the peer dead: ERR_PROC_FAILED, the ULFM path).  Consequences:

   - duplicates are counted and logged but never enqueued (the layer's
     receive-side sequence numbers discard them);
   - corruption is detected by the payload CRC, so a corrupted attempt is
     a retransmission, never silent bad data.  The [deliver_corrupt] test
     knob instead delivers the corrupted payload so the receiver-side CRC
     backstop can be exercised;
   - reordering only shifts arrival timestamps: matching order is
     restored by the sequence numbers, as in any reliable transport. *)

(* Per-link fault rates.  All probabilities are per transmission attempt;
   [jitter] is the upper bound of a uniform extra transit delay in
   seconds.  A rate structure with every field 0. is a perfect link. *)
type link_rates = {
  drop : float;  (* P(attempt is lost in transit) *)
  duplicate : float;  (* P(attempt arrives twice; dup is discarded by seq) *)
  reorder : float;  (* P(attempt is held back one extra latency) *)
  corrupt : float;  (* P(attempt arrives with flipped bits) *)
  jitter : float;  (* uniform extra transit delay in [0, jitter) seconds *)
}

let perfect_link = { drop = 0.; duplicate = 0.; reorder = 0.; corrupt = 0.; jitter = 0. }

(* A moderately lossy network: a few percent of attempts misbehave, with
   jitter on the order of the wire latency.  Chaos tests start here. *)
let lossy_rates ~latency =
  { drop = 0.02; duplicate = 0.01; reorder = 0.01; corrupt = 0.005; jitter = latency }

(* The rates of every link without an override. *)
type default_rates = Perfect | Lossy | Rates of link_rates

type config = {
  seed : int;
  rates : default_rates;
  links : ((int * int) * link_rates) list;  (* per-link overrides *)
  plan : Fault_plan.t;
  max_retries : int;  (* retransmissions before escalating to ERR_PROC_FAILED *)
  rto : float option;  (* base retransmit timeout; None = 4 x latency *)
  backoff : float;  (* per-attempt timeout multiplier, >= 1 *)
  jitter_cap : float;  (* upper bound on accumulated jitter delay, seconds *)
  deliver_corrupt : bool;  (* test knob: deliver corrupted payloads *)
}

(* The one place the retransmission defaults are written: 8 retries,
   binary exponential backoff, unbounded jitter. *)
let config ?(seed = 1) ?(rates = Perfect) ?(links = []) ?(plan = Fault_plan.empty)
    ?(max_retries = 8) ?rto ?(backoff = 2.0) ?(jitter_cap = infinity)
    ?(deliver_corrupt = false) () =
  { seed; rates; links; plan; max_retries; rto; backoff; jitter_cap; deliver_corrupt }

(* A deterministic plan trigger with a fired latch (so `ops >= k` cannot
   re-fire after the threshold passes). *)
type fail_trigger = {
  ft_rank : int;
  ft_kind : [ `Ops of int | `Time of float | `Task of int ];
  mutable ft_fired : bool;
}

type t = {
  cfg : config;
  rng : Xoshiro.t;
  size : int;
  rates : link_rates;  (* resolved default rates *)
  rto : float;  (* resolved base retransmit timeout *)
  latency : float;
  send_overhead : float;
  trace : Trace.t;
  (* counters and the RTT histogram, exposed through the Stats registry *)
  c_dropped : Stats.counter;
  c_duplicated : Stats.counter;
  c_corrupted : Stats.counter;
  c_reordered : Stats.counter;
  c_retransmits : Stats.counter;
  c_escalations : Stats.counter;
  c_plan_failures : Stats.counter;
  h_rtt : Stats.histogram;
  (* deterministic event log (byte-identical for identical seed + plan) *)
  log : Buffer.t;
  mutable n_events : int;
  op_counts : int array;  (* per-rank runtime-operation counter *)
  task_counts : int array;  (* per-rank task-execution counter (taskqueue) *)
  triggers : fail_trigger list;
  drop_nth : ((int * int) * int) list;
  partitions : (int list * float * float) list;
  link_counts : (int * int, int ref) Hashtbl.t;
}

(* Cap the replay log so a long lossy soak cannot grow memory without
   bound; the cap is deterministic, so determinism comparisons survive
   truncation. *)
let max_log_events = 200_000

(* [%g] when that reads back as the same float, every digit otherwise, so
   a printed spec parses back to an equal config. *)
let float_str f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* The rate clauses of [r], as the spec spells them. *)
let rate_fields (r : link_rates) =
  let fields =
    List.filter_map
      (fun (name, v) ->
        if v > 0. then Some (Printf.sprintf "%s=%s" name (float_str v)) else None)
      [ ("drop", r.drop); ("dup", r.duplicate); ("reorder", r.reorder);
        ("corrupt", r.corrupt); ("jitter", r.jitter) ]
  in
  if fields = [] then [ "drop=0" ] else fields

let link_to_string ((src, dst), r) =
  Printf.sprintf "link=%d>%d:%s" src dst (String.concat "," (rate_fields r))

let create ~size ~(model : Net_model.t) ~stats ~trace (cfg : config) : t =
  (* A clause naming a rank outside the run would never fire. *)
  let check clause =
    List.iter (fun r ->
        if r < 0 || r >= size then
          raise
            (Errdefs.Usage_error
               (Printf.sprintf "chaos clause %s names rank %d, outside a run of %d ranks"
                  clause r size)))
  in
  List.iter (fun (((s, d), _) as l) -> check (link_to_string l) [ s; d ]) cfg.links;
  let triggers, drop_nth, partitions =
    List.fold_left
      (fun (ts, ds, ps) a ->
        let check = check (Fault_plan.action_to_string a) in
        let trigger rank kind =
          check [ rank ];
          ({ ft_rank = rank; ft_kind = kind; ft_fired = false } :: ts, ds, ps)
        in
        match a with
        | Fault_plan.Fail_at_ops { rank; ops } -> trigger rank (`Ops ops)
        | Fault_plan.Fail_at_time { rank; time } -> trigger rank (`Time time)
        | Fault_plan.Fail_at_task { rank; task } -> trigger rank (`Task task)
        | Fault_plan.Drop_nth { src; dst; n } ->
            check [ src; dst ];
            (ts, ((src, dst), n) :: ds, ps)
        | Fault_plan.Partition { ranks; t_start; t_end } ->
            check ranks;
            (ts, ds, (ranks, t_start, t_end) :: ps))
      ([], [], []) cfg.plan
  in
  {
    cfg;
    rng = Xoshiro.create ~seed:cfg.seed ~stream:0xC4A05;
    size;
    rates =
      (match cfg.rates with
      | Perfect -> perfect_link
      | Lossy -> lossy_rates ~latency:model.Net_model.latency
      | Rates r -> r);
    rto = Option.value cfg.rto ~default:(4. *. model.Net_model.latency);
    latency = model.Net_model.latency;
    send_overhead = model.Net_model.send_overhead;
    trace;
    c_dropped = Stats.counter stats "chaos.dropped";
    c_duplicated = Stats.counter stats "chaos.duplicated";
    c_corrupted = Stats.counter stats "chaos.corrupted";
    c_reordered = Stats.counter stats "chaos.reordered";
    c_retransmits = Stats.counter stats "chaos.retransmits";
    c_escalations = Stats.counter stats "chaos.escalations";
    c_plan_failures = Stats.counter stats "chaos.plan_failures";
    h_rtt = Stats.histogram stats "reliable.rtt";
    log = Buffer.create 256;
    n_events = 0;
    op_counts = Array.make size 0;
    task_counts = Array.make size 0;
    triggers;
    drop_nth;
    partitions;
    link_counts = Hashtbl.create 16;
  }

let seed t = t.cfg.seed

let deliver_corrupt t = t.cfg.deliver_corrupt

let events t = t.n_events

let log_contents t = Buffer.contents t.log

(* One event: counter + replay-log line + (when tracing) an instant on
   the source rank's track. *)
let event t ~rank ~name fmt =
  Printf.ksprintf
    (fun detail ->
      t.n_events <- t.n_events + 1;
      if t.n_events <= max_log_events then begin
        Buffer.add_string t.log
          (Printf.sprintf "[%d] %s %s\n" (t.n_events - 1) name detail);
        if t.n_events = max_log_events then
          Buffer.add_string t.log "[...] chaos log truncated\n"
      end;
      if rank >= 0 && rank < t.size then
        Trace.instant t.trace ~rank ~cat:"chaos" ~name ~a:(-1) ~b:(-1) ~c:(-1))
    fmt

(* ------------------------------------------------------------------ *)
(* Plan triggers *)

(* Count one runtime operation of [rank] (called from Runtime.check_alive,
   which every MPI-level operation passes through) and report whether a
   plan trigger says the rank dies here.  [now] is the rank's own clock. *)
let tick t ~rank ~now : bool =
  t.op_counts.(rank) <- t.op_counts.(rank) + 1;
  let ops = t.op_counts.(rank) in
  List.exists
    (fun ft ->
      if ft.ft_fired || ft.ft_rank <> rank then false
      else
        let due =
          match ft.ft_kind with
          | `Ops k -> ops >= k
          | `Time time -> now >= time
          | `Task _ -> false
        in
        if due then begin
          ft.ft_fired <- true;
          Stats.incr t.c_plan_failures;
          (match ft.ft_kind with
          | `Ops k -> event t ~rank ~name:"plan_fail" "rank=%d ops=%d" rank k
          | `Time time -> event t ~rank ~name:"plan_fail" "rank=%d t=%g" rank time
          | `Task _ -> ())
        end;
        due)
    t.triggers

(* Count one task execution beginning on [rank] (fed by the taskqueue
   plugin through [Runtime.task_tick]) and report whether a
   [fail=R@task:K] trigger fells the rank here.  Deterministic: the
   counter is per-rank and advances only at task-execution starts, so a
   trigger fires at the same task no matter how the scheduler interleaves
   the queue's message traffic. *)
let task_tick t ~rank : bool =
  t.task_counts.(rank) <- t.task_counts.(rank) + 1;
  let tasks = t.task_counts.(rank) in
  List.exists
    (fun ft ->
      if ft.ft_fired || ft.ft_rank <> rank then false
      else
        match ft.ft_kind with
        | `Task k when tasks >= k ->
            ft.ft_fired <- true;
            Stats.incr t.c_plan_failures;
            event t ~rank ~name:"plan_fail" "rank=%d task=%d" rank k;
            true
        | _ -> false)
    t.triggers

(* Time-based triggers whose deadline has passed at global progress point
   [now] (a sender's clock): returns the ranks that must die now even if
   their own fibers are parked.  The caller kills them; the scheduler's
   wake check discontinues their fibers. *)
let due_time_failures t ~now : int list =
  List.filter_map
    (fun ft ->
      match ft.ft_kind with
      | `Time time when (not ft.ft_fired) && now >= time ->
          ft.ft_fired <- true;
          Stats.incr t.c_plan_failures;
          event t ~rank:ft.ft_rank ~name:"plan_fail" "rank=%d t=%g" ft.ft_rank time;
          Some ft.ft_rank
      | _ -> None)
    t.triggers

(* ------------------------------------------------------------------ *)
(* Per-transfer fault interpretation (the reliable-delivery model) *)

type transfer = {
  tr_escalated : bool;
      (* every attempt was lost: the sender's failure detector declares
         the peer dead (ERR_PROC_FAILED) *)
  tr_attempts : int;  (* 1 = clean first transmission *)
  tr_delay : float;  (* extra arrival delay: backoff + jitter + reorder *)
  tr_sender_busy : float;  (* retransmission cost charged to the sender *)
  tr_corrupt : bool;  (* payload delivered corrupted (deliver_corrupt) *)
}

let partition_active t ~src ~dst ~at =
  List.exists
    (fun (ranks, t0, t1) ->
      at >= t0 && at < t1 && List.mem src ranks <> List.mem dst ranks)
    t.partitions

let draw t p = p > 0. && Xoshiro.next_float t.rng < p

(* Decide the fate of one logical message on link [src -> dst] injected at
   sender time [now].  Deterministic given (seed, plan, call order). *)
let on_transfer t ~src ~dst ~seq ~bytes ~now : transfer =
  let rates = Option.value (List.assoc_opt (src, dst) t.cfg.links) ~default:t.rates in
  let link_seq =
    let c =
      match Hashtbl.find_opt t.link_counts (src, dst) with
      | Some c -> c
      | None ->
          let c = ref 0 in
          Hashtbl.replace t.link_counts (src, dst) c;
          c
    in
    incr c;
    !c
  in
  let forced_drop =
    List.exists (fun ((s, d), n) -> s = src && d = dst && n = link_seq) t.drop_nth
  in
  let max_attempts = t.cfg.max_retries + 1 in
  let rec attempt i ~delay ~busy =
    if i > max_attempts then begin
      Stats.incr t.c_escalations;
      event t ~rank:src ~name:"escalate" "%d->%d seq=%d attempts=%d" src dst seq
        max_attempts;
      {
        tr_escalated = true;
        tr_attempts = max_attempts;
        tr_delay = delay;
        tr_sender_busy = busy;
        tr_corrupt = false;
      }
    end
    else begin
      let at = now +. delay in
      let lost =
        if partition_active t ~src ~dst ~at then begin
          Stats.incr t.c_dropped;
          event t ~rank:src ~name:"partition_drop" "%d->%d seq=%d attempt=%d t=%g" src
            dst seq i at;
          true
        end
        else if i = 1 && forced_drop then begin
          Stats.incr t.c_dropped;
          event t ~rank:src ~name:"plan_drop" "%d->%d link_seq=%d" src dst link_seq;
          true
        end
        else if draw t rates.drop then begin
          Stats.incr t.c_dropped;
          event t ~rank:src ~name:"drop" "%d->%d seq=%d attempt=%d" src dst seq i;
          true
        end
        else if draw t rates.corrupt && not t.cfg.deliver_corrupt then begin
          (* CRC fails at the receiver; to the reliable layer that is a
             lost attempt like any other. *)
          Stats.incr t.c_corrupted;
          event t ~rank:src ~name:"corrupt" "%d->%d seq=%d attempt=%d (retransmit)" src
            dst seq i;
          true
        end
        else false
      in
      if lost then begin
        Stats.incr t.c_retransmits;
        let backoff = t.rto *. (t.cfg.backoff ** float_of_int (i - 1)) in
        attempt (i + 1) ~delay:(delay +. backoff) ~busy:(busy +. t.send_overhead)
      end
      else begin
        let corrupt_delivered =
          t.cfg.deliver_corrupt && draw t rates.corrupt
        in
        if corrupt_delivered then begin
          Stats.incr t.c_corrupted;
          event t ~rank:src ~name:"corrupt" "%d->%d seq=%d (delivered)" src dst seq
        end;
        if draw t rates.duplicate then begin
          (* The duplicate arrives but the receive side's sequence numbers
             discard it; nothing is enqueued twice. *)
          Stats.incr t.c_duplicated;
          event t ~rank:src ~name:"duplicate" "%d->%d seq=%d" src dst seq
        end;
        let delay =
          if draw t rates.reorder then begin
            Stats.incr t.c_reordered;
            event t ~rank:src ~name:"reorder" "%d->%d seq=%d" src dst seq;
            delay +. t.latency
          end
          else delay
        in
        let delay =
          if rates.jitter > 0. then
            delay +. Float.min (rates.jitter *. Xoshiro.next_float t.rng) t.cfg.jitter_cap
          else delay
        in
        Stats.observe t.h_rtt (t.latency +. delay);
        ignore bytes;
        {
          tr_escalated = false;
          tr_attempts = i;
          tr_delay = delay;
          tr_sender_busy = busy;
          tr_corrupt = corrupt_delivered;
        }
      end
    end
  in
  attempt 1 ~delay:0. ~busy:0.

(* Flip one deterministic-random bit of the payload slice in a copy of
   the storage (the [deliver_corrupt] path; the CRC was computed over the
   pristine bytes, so the receiver's check must fire).  The corruption
   reaches this transfer's receiver only: whoever else holds the storage
   keeps the clean bytes. *)
let corrupt_payload t (payload : Bytes.t) ~pos ~len =
  let copy = Bytes.copy payload in
  if len > 0 then begin
    let byte = pos + Xoshiro.next_int t.rng ~bound:len in
    let bit = Xoshiro.next_int t.rng ~bound:8 in
    Bytes.set copy byte (Char.chr (Char.code (Bytes.get copy byte) lxor (1 lsl bit)))
  end;
  copy

(* ------------------------------------------------------------------ *)
(* Spec parsing: the full --chaos argument; chaos.mli lists the
   clauses.  Every error names the offending clause. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* [s] split at the first [c]. *)
let cut c s =
  Option.map
    (fun i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1)))
    (String.index_opt s c)

let parse_float clause s =
  match float_of_string_opt (String.trim s) with
  | Some f when f >= 0. && Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "%s: %S is not a finite non-negative number" clause s)

let parse_rates_update clause (r : link_rates) key v : (link_rates, string) result =
  let* f = parse_float clause v in
  let prob set =
    if f <= 1. then Ok (set f)
    else Error (Printf.sprintf "%s: a probability must lie in [0, 1]" clause)
  in
  match key with
  | "drop" -> prob (fun f -> { r with drop = f })
  | "dup" | "duplicate" -> prob (fun f -> { r with duplicate = f })
  | "reorder" -> prob (fun f -> { r with reorder = f })
  | "corrupt" -> prob (fun f -> { r with corrupt = f })
  | "jitter" -> Ok { r with jitter = f }
  | k -> Error (Printf.sprintf "%s: unknown rate %S" clause k)

let parse_link clause rhs =
  let rank s =
    match int_of_string_opt (String.trim s) with Some r when r >= 0 -> Some r | _ -> None
  in
  match cut ':' rhs with
  | None -> Error (Printf.sprintf "%s: expected link=A>B:rate=value,..." clause)
  | Some (link, rates) -> (
      match Option.map (fun (a, b) -> (rank a, rank b)) (cut '>' link) with
      | None -> Error (Printf.sprintf "%s: expected A>B before ':'" clause)
      | Some (Some src, Some dst) ->
          let* rates =
            List.fold_left
              (fun acc kv ->
                let* acc = acc in
                match cut '=' kv with
                | None -> Error (Printf.sprintf "%s: expected rate=value in %S" clause kv)
                | Some (k, v) -> parse_rates_update clause acc (String.trim k) v)
              (Ok perfect_link) (String.split_on_char ',' rates)
          in
          Ok ((src, dst), rates)
      | Some _ -> Error (Printf.sprintf "%s: bad ranks in link spec" clause))

let config_of_string (s : string) : (config, string) result =
  match int_of_string_opt (String.trim s) with
  | Some seed -> Ok (config ~seed ~rates:Lossy ())
  | None ->
      let conflict clause earlier =
        Error
          (Printf.sprintf
             "%s: conflicts with %s (the default rates are either lossy or set by \
              rate clauses)"
             clause earlier)
      in
      let clause_result (cfg : config) clause =
        match (clause, cut '=' clause) with
        | "lossy", _ -> (
            match cfg.rates with
            | Rates r -> conflict clause (String.concat ";" (rate_fields r))
            | Perfect | Lossy -> Ok { cfg with rates = Lossy })
        | "deliver_corrupt", _ -> Ok { cfg with deliver_corrupt = true }
        | _, None -> Error (Printf.sprintf "unknown chaos clause %S" clause)
        | _, Some (key, v) -> (
            match String.trim key with
            | "seed" -> (
                match int_of_string_opt (String.trim v) with
                | Some seed -> Ok { cfg with seed }
                | None -> Error (Printf.sprintf "%s: bad seed" clause))
            | "retries" -> (
                match int_of_string_opt (String.trim v) with
                | Some n when n >= 0 -> Ok { cfg with max_retries = n }
                | _ -> Error (Printf.sprintf "%s: bad retry count" clause))
            | "rto" ->
                let* f = parse_float clause v in
                Ok { cfg with rto = Some f }
            | "backoff" ->
                let* f = parse_float clause v in
                if f < 1. then
                  Error (Printf.sprintf "%s: backoff multiplier must be >= 1" clause)
                else Ok { cfg with backoff = f }
            | "jitter_cap" -> (
                (* The one value that may be infinite: it is the default. *)
                match float_of_string_opt (String.trim v) with
                | Some f when f >= 0. -> Ok { cfg with jitter_cap = f }
                | _ ->
                    Error (Printf.sprintf "%s: %S is not a non-negative number" clause v))
            | ("drop" | "dup" | "duplicate" | "reorder" | "corrupt" | "jitter") as key -> (
                match cfg.rates with
                | Lossy -> conflict clause "lossy"
                | Perfect | Rates _ ->
                    let base = match cfg.rates with Rates r -> r | _ -> perfect_link in
                    let* r = parse_rates_update clause base key v in
                    Ok { cfg with rates = Rates r })
            | "link" ->
                let* l = parse_link clause v in
                Ok { cfg with links = cfg.links @ [ l ] }
            | "fail" | "droplink" | "partition" ->
                let* a = Fault_plan.parse_action clause in
                Ok { cfg with plan = cfg.plan @ [ a ] }
            | k -> Error (Printf.sprintf "unknown chaos clause %S" k))
      in
      String.split_on_char ';' s
      |> List.fold_left
           (fun acc clause ->
             let* cfg = acc in
             match String.trim clause with "" -> Ok cfg | clause -> clause_result cfg clause)
           (Ok (config ()))

(* Retry clauses are printed only where they differ from [config ()], so
   the replay line of a default run stays short and parses back equal. *)
let config_to_string (cfg : config) =
  let d = config () in
  let unless_default v dv clause = if v = dv then [] else [ clause ] in
  String.concat ";"
    (List.concat
       [
         [ Printf.sprintf "seed=%d" cfg.seed ];
         (match cfg.rates with
         | Perfect -> []
         | Lossy -> [ "lossy" ]
         | Rates r -> rate_fields r);
         List.map link_to_string cfg.links;
         unless_default cfg.max_retries d.max_retries
           (Printf.sprintf "retries=%d" cfg.max_retries);
         (match cfg.rto with Some r -> [ "rto=" ^ float_str r ] | None -> []);
         unless_default cfg.backoff d.backoff ("backoff=" ^ float_str cfg.backoff);
         unless_default cfg.jitter_cap d.jitter_cap
           ("jitter_cap=" ^ float_str cfg.jitter_cap);
         (if cfg.deliver_corrupt then [ "deliver_corrupt" ] else []);
         List.map Fault_plan.action_to_string cfg.plan;
       ])
