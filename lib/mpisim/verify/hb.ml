(* Offline happens-before analyzer over a binary trace stream.

   Input: any Trace_stream capture (Engine ~trace_stream, i.e. repro_cli
   --trace-stream): "send" instants and "send_meta" instants
   (tag/context/sync), "post" instants for every posted receive,
   "matched" instants linking a post to the message it got,
   "match"/"match_wait" completion instants, and "nc_order" markers
   inside non-commutative reduction spans.

   The pass reconstructs the match relation (which send each receive
   consumed) and the happens-before partial order, as vector clocks
   derived from the send and match events in the same pass ([Clocks]),
   then reports:

   - wildcard-race: a wildcard receive whose matched send has at least
     one pattern-compatible alternative sender with a causally
     {e incomparable} vector clock.  Unlike Mpicheck's runtime counter
     — which only sees candidates already queued when the receive is
     posted — this catches races where the receive parks first and the
     competing sends arrive later: the VCs prove the sends were
     concurrent, so a real MPI could have delivered either.
   - nc-order: a non-commutative reduction that consumed contributions
     from causally concurrent senders — on a real MPI, arrival order
     (and thus floating-point combine order) is schedule-dependent.
   - buffer-reuse: the window between a large (>= eager threshold)
     non-synchronous send returning and its match, during which a real
     MPI gives no buffer-ownership guarantee.

   Every finding carries the global message sequence number — the same
   id the Chrome-trace converter keys its flow arrows on — so findings
   can be located visually in the converted trace. *)

type send = {
  s_rank : int;
  s_dst : int;
  s_seq : int;
  s_bytes : int;
  s_ts : float;
  mutable s_tag : int;  (* from send_meta; min_int until seen *)
  mutable s_ctx : int;
  mutable s_sync : bool;
  s_vc : int array;  (* sender's vector clock at the send (trimmed) *)
}

type post = {
  po_rank : int;
  po_src : int;  (* -1 = any_source *)
  po_tag : int;  (* -1 = any_tag *)
  po_ctx : int;
  po_id : int;
  mutable po_match_seq : int;  (* -1 until a matched instant links it *)
}

(* One open collective span on a rank's stack.  [matches] accumulates the
   message seqs consumed anywhere inside the span (including nested
   lowered collectives); [nc] is set by an "nc_order" instant. *)
type coll_span = { mutable nc : bool; mutable span_matches : int list }

type result_t = {
  findings : Report.finding list;
  ranks : int;
  events : int;
  sends : int;
  matches : int;
  wildcard_posts : int;
  vcs : int;  (* vector clocks derived: one per send and per match *)
}

(* Vector clocks rebuilt offline from the stream's event order.  The
   writer records a send before the message can be matched (and every
   rank's events in program order, under the multicore backend's locked
   writer too), so one pass in file order replays the classic rules: a
   send ticks the sender's own component and snapshots its clock under
   the message seq; a match merges that snapshot component-wise, then
   ticks the receiver.  A match whose send is missing or comes later in
   the file merges nothing.

   Clocks are stored trimmed — entries past the end are zero
   ({!Report.vc_get}) — so a clock only grows to the highest rank in its
   causal past, and a header claiming many idle ranks costs nothing. *)
module Clocks = struct
  type t = {
    rows : int array array;  (* per-rank current clock, trimmed *)
    snaps : (int, int array) Hashtbl.t;  (* message seq -> send clock *)
  }

  let create ~ranks = { rows = Array.make ranks [||]; snaps = Hashtbl.create 256 }

  (* Merge [other] into [rank]'s clock, then tick [rank]'s component. *)
  let advance t rank other =
    let cur = t.rows.(rank) in
    let n = max (max (Array.length cur) (rank + 1)) (Array.length other) in
    let row = if Array.length cur = n then cur else Array.init n (Report.vc_get cur) in
    Array.iteri (fun i x -> if x > row.(i) then row.(i) <- x) other;
    row.(rank) <- row.(rank) + 1;
    t.rows.(rank) <- row

  (* Apply one stream event (ranks are validated by the reader); returns
     true if it was a send or a match, i.e. it derived a clock. *)
  let step t (ev : Trace_stream.event) =
    match ev.Trace_stream.ev_cat, ev.ev_name with
    | "sim", "send" ->
        advance t ev.ev_rank [||];
        Hashtbl.replace t.snaps ev.ev_b (Array.copy t.rows.(ev.ev_rank));
        true
    | "sim", ("match" | "match_wait") ->
        let snap = Option.value (Hashtbl.find_opt t.snaps ev.ev_b) ~default:[||] in
        advance t ev.ev_rank snap;
        true
    | _ -> false

  (* The sender's clock at the send of message [seq], if seen so far. *)
  let send_clock t seq = Hashtbl.find_opt t.snaps seq

  (* A copy of [rank]'s current clock (trimmed). *)
  let clock t rank = Array.copy t.rows.(rank)
end

let default_eager_threshold = 64 * 1024

let analyze ?(eager_threshold = default_eager_threshold) ?(include_internal = false) path
    : (result_t, string) result =
  let sends : (int, send) Hashtbl.t = Hashtbl.create 256 in
  let posts : post list ref = ref [] in
  let posts_by_key : (int * int, post) Hashtbl.t = Hashtbl.create 256 in
  (* msg seq -> (receiver rank, receiver virtual time at match) *)
  let match_ts : (int, int * float) Hashtbl.t = Hashtbl.create 256 in
  let clocks = ref (Clocks.create ~ranks:0) in
  let nranks = ref 0 in
  let coll_stacks : coll_span list array ref = ref [||] in
  let vcs = ref 0 in
  let show vc = Report.vc_to_string ~ranks:!nranks vc in
  let n_matches = ref 0 in
  let findings = ref [] in
  let add_finding f = findings := f :: !findings in
  let nc_span_done rank (sp : coll_span) =
    (* A non-commutative reduction span closed: were any two of the
       contributions it consumed causally concurrent? *)
    if sp.nc then begin
      let seqs = List.rev sp.span_matches in
      let found = List.filter_map (Hashtbl.find_opt sends) seqs in
      let rec first_pair = function
        | [] -> None
        | s :: rest -> (
            match List.find_opt (fun s' -> Report.vc_concurrent s.s_vc s'.s_vc) rest with
            | Some s' -> Some (s, s')
            | None -> first_pair rest)
      in
      match first_pair found with
      | None -> ()
      | Some (s1, s2) ->
          add_finding
            (Report.make ~cls:"nc-order" ~rank ~flow:s1.s_seq
               (Printf.sprintf
                  "non-commutative reduction combined causally concurrent contributions: \
                   send %d from rank %d (vc %s) vs send %d from rank %d (vc %s); a real \
                   MPI's arrival order could change the result"
                  s1.s_seq s1.s_rank (show s1.s_vc) s2.s_seq s2.s_rank (show s2.s_vc)))
    end
  in
  let on_event (ev : Trace_stream.event) =
    if Clocks.step !clocks ev then incr vcs;
    match ev.Trace_stream.ev_cat with
    | "sim" -> (
        match ev.ev_name with
        | "send" ->
            let s =
              {
                s_rank = ev.ev_rank;
                s_dst = ev.ev_a;
                s_seq = ev.ev_b;
                s_bytes = ev.ev_c;
                s_ts = ev.ev_ts;
                s_tag = min_int;
                s_ctx = min_int;
                s_sync = false;
                s_vc = Option.value (Clocks.send_clock !clocks ev.ev_b) ~default:[||];
              }
            in
            Hashtbl.replace sends ev.ev_b s
        | "send_meta" -> (
            match Hashtbl.find_opt sends ev.ev_b with
            | Some s ->
                s.s_tag <- ev.ev_a;
                s.s_ctx <- ev.ev_c;
                s.s_sync <- ev.ev_d = 1
            | None -> ())
        | "post" ->
            let po =
              {
                po_rank = ev.ev_rank;
                po_src = ev.ev_a;
                po_tag = ev.ev_b;
                po_ctx = ev.ev_c;
                po_id = ev.ev_d;
                po_match_seq = -1;
              }
            in
            posts := po :: !posts;
            Hashtbl.replace posts_by_key (ev.ev_rank, ev.ev_d) po
        | "matched" -> (
            match Hashtbl.find_opt posts_by_key (ev.ev_rank, ev.ev_a) with
            | Some po -> po.po_match_seq <- ev.ev_b
            | None -> ())
        | "match" | "match_wait" ->
            incr n_matches;
            Hashtbl.replace match_ts ev.ev_b (ev.ev_rank, ev.ev_ts);
            List.iter
              (fun sp -> sp.span_matches <- ev.ev_b :: sp.span_matches)
              !coll_stacks.(ev.ev_rank)
        | _ -> ())
    | "coll" -> (
        let stacks = !coll_stacks and r = ev.ev_rank in
        match (ev.ev_kind, ev.ev_name, stacks.(r)) with
        | Trace_chrome.Begin, _, stack ->
            stacks.(r) <- { nc = false; span_matches = [] } :: stack
        | Trace_chrome.End, _, sp :: rest ->
            stacks.(r) <- rest;
            nc_span_done r sp
        | Trace_chrome.Instant, "nc_order", sp :: _ -> sp.nc <- true
        | _ -> ())
    | _ -> ()
  in
  let fold =
    Trace_stream.fold_file path
      ~on_header:(fun ranks ->
        nranks := ranks;
        clocks := Clocks.create ~ranks;
        coll_stacks := Array.make ranks [])
      ~init:0
      ~f:(fun n ev ->
        on_event ev;
        n + 1)
  in
  match fold with
  | Error msg -> Error msg
  | Ok (events, summary) ->
      let internal s = s.s_tag > Comm.max_user_tag in
      (* Wildcard races: for each wildcard post that matched, find the
         pattern-compatible alternative sends concurrent with the chosen
         one. *)
      let wildcard_posts = ref 0 in
      List.iter
        (fun po ->
          if (po.po_src = -1 || po.po_tag = -1) && po.po_match_seq >= 0 then begin
            incr wildcard_posts;
            match Hashtbl.find_opt sends po.po_match_seq with
            | None -> ()
            | Some chosen ->
                if include_internal || not (internal chosen) then begin
                  let compatible s =
                    s.s_seq <> chosen.s_seq && s.s_dst = po.po_rank && s.s_ctx = po.po_ctx
                    && (po.po_src = -1 || s.s_rank = po.po_src)
                    && (po.po_tag = -1 || s.s_tag = po.po_tag)
                  in
                  let racing =
                    Hashtbl.fold
                      (fun _ s acc ->
                        if compatible s && Report.vc_concurrent chosen.s_vc s.s_vc then
                          s :: acc
                        else acc)
                      sends []
                    |> List.sort (fun a b -> compare a.s_seq b.s_seq)
                  in
                  if racing <> [] then
                    add_finding
                      (Report.make ~cls:"wildcard-race" ~rank:po.po_rank
                         ~flow:chosen.s_seq
                         (Printf.sprintf
                            "wildcard recv (src %s, tag %s) matched send %d from rank %d \
                             (vc %s), but %d concurrent candidate(s) could have matched \
                             instead: %s"
                            (if po.po_src = -1 then "any" else string_of_int po.po_src)
                            (if po.po_tag = -1 then "any" else string_of_int po.po_tag)
                            chosen.s_seq chosen.s_rank (show chosen.s_vc)
                            (List.length racing)
                            (String.concat "; "
                               (List.map
                                  (fun s ->
                                    Printf.sprintf "send %d from rank %d (vc %s)" s.s_seq
                                      s.s_rank (show s.s_vc))
                                  racing))))
                end
          end)
        (List.rev !posts);
      (* Buffer-reuse windows: large eager sends whose buffer a real MPI
         does not own-protect until the match. *)
      Hashtbl.iter
        (fun _ s ->
          if
            (not s.s_sync) && s.s_bytes >= eager_threshold
            && (include_internal || not (internal s))
          then
            match Hashtbl.find_opt match_ts s.s_seq with
            | Some (mrank, mts) when mts > s.s_ts ->
                add_finding
                  (Report.make ~cls:"buffer-reuse" ~rank:s.s_rank ~flow:s.s_seq
                     (Printf.sprintf
                        "send %d (%d bytes >= eager threshold %d) to rank %d returned at \
                         t=%.9f but was only matched at t=%.9f: the %.9fs window is \
                         reuse-unsafe on a rendezvous-protocol MPI"
                        s.s_seq s.s_bytes eager_threshold mrank s.s_ts mts (mts -. s.s_ts)))
            | _ -> ())
        sends;
      let findings =
        List.sort
          (fun a b -> compare (a.Report.f_flow, a.Report.f_class) (b.Report.f_flow, b.Report.f_class))
          !findings
      in
      Ok
        {
          findings;
          ranks = summary.Trace_stream.s_ranks;
          events;
          sends = Hashtbl.length sends;
          matches = !n_matches;
          wildcard_posts = !wildcard_posts;
          vcs = !vcs;
        }
