(* Unit tests for point-to-point semantics: matching, wildcards,
   non-overtaking order, probing, synchronous sends, truncation, request
   completion, failure observation. *)

open Mpisim

let run2 body = Engine.run_values ~ranks:2 body

let test_basic_send_recv () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 [| 1; 2; 3 |];
          [||]
        end
        else fst (P2p.recv comm Datatype.int ~source:0 ()))
  in
  Alcotest.(check (array int)) "payload" [| 1; 2; 3 |] results.(1)

let test_status_fields () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.float ~dest:1 ~tag:7 [| 1.5; 2.5 |];
          (0, 0, 0)
        end
        else begin
          let _, st = P2p.recv comm Datatype.float ~source:0 () in
          (Status.source st, Status.tag st, Status.count st)
        end)
  in
  Alcotest.(check (triple int int int)) "status" (0, 7, 2) results.(1)

let test_nonovertaking_same_pair () =
  (* Two same-tag messages from the same sender must arrive in order. *)
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 [| 1 |];
          P2p.send comm Datatype.int ~dest:1 [| 2 |];
          P2p.send comm Datatype.int ~dest:1 [| 3 |];
          []
        end
        else
          List.init 3 (fun _ -> (fst (P2p.recv comm Datatype.int ~source:0 ())).(0)))
  in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] results.(1)

let test_tag_selectivity () =
  (* A tagged receive must skip earlier messages with other tags. *)
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 ~tag:1 [| 100 |];
          P2p.send comm Datatype.int ~dest:1 ~tag:2 [| 200 |];
          []
        end
        else begin
          let b, _ = P2p.recv comm Datatype.int ~source:0 ~tag:2 () in
          let a, _ = P2p.recv comm Datatype.int ~source:0 ~tag:1 () in
          [ b.(0); a.(0) ]
        end)
  in
  Alcotest.(check (list int)) "tag selection" [ 200; 100 ] results.(1)

(* A fully wildcard receive beside a nonblocking allreduce in flight: the
   wildcard tag matches user tags only, so the receive takes rank 1's
   tag-7 message and never one of the allreduce's internal messages
   (which would leave the allreduce waiting forever). *)
let test_wildcard_tag_skips_collective_traffic () =
  let results =
    Engine.run_values ~ranks:4 (fun comm ->
        let me = Comm.rank comm in
        let req, cell = Coll.iallreduce comm Datatype.int Reduce_op.int_sum [| me |] in
        if me = 1 then P2p.send comm Datatype.int ~dest:0 ~tag:7 [| 70 |];
        let got =
          if me = 0 then begin
            let data, st = P2p.recv comm Datatype.int ~source:P2p.any_source () in
            (Status.tag st, data.(0))
          end
          else (-1, -1)
        in
        ignore (Request.wait req);
        (got, (Option.get !cell).(0)))
  in
  Alcotest.(check (pair int int))
    "rank 0 received the user message" (7, 70) (fst results.(0));
  Array.iter (fun (_, sum) -> Alcotest.(check int) "allreduce sum" 6 sum) results

let test_any_source_oldest_first () =
  let results =
    Engine.run_values ~ranks:3 (fun comm ->
        (match Comm.rank comm with
        | 1 -> P2p.send comm Datatype.int ~dest:0 [| 11 |]
        | 2 -> P2p.send comm Datatype.int ~dest:0 [| 22 |]
        | _ -> ());
        (* Barrier so that both messages are unexpected at rank 0 before it
           posts any wildcard receive. *)
        Coll.barrier comm;
        if Comm.rank comm = 0 then begin
          let a, _ = P2p.recv comm Datatype.int () in
          let b, _ = P2p.recv comm Datatype.int () in
          [ a.(0); b.(0) ]
        end
        else [])
  in
  (* Deterministic scheduling: rank 1 injects before rank 2. *)
  Alcotest.(check (list int)) "oldest first" [ 11; 22 ] results.(0)

let test_probe_then_recv () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 ~tag:5 [| 7; 8; 9 |];
          (0, [||])
        end
        else begin
          let st = P2p.probe comm () in
          let data, _ =
            P2p.recv comm Datatype.int ~source:(Status.source st) ~tag:(Status.tag st) ()
          in
          (Status.count st, data)
        end)
  in
  let count, data = results.(1) in
  Alcotest.(check int) "probed count" 3 count;
  Alcotest.(check (array int)) "probed data" [| 7; 8; 9 |] data

let test_iprobe_empty () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then P2p.iprobe comm () = None else true)
  in
  Alcotest.(check bool) "no message" true results.(0)

let test_truncation_error () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int ~dest:1 [| 1; 2; 3; 4 |]
            else begin
              let buf = Array.make 2 0 in
              ignore (P2p.recv_into comm Datatype.int ~source:0 buf)
            end))
   with Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_truncate; _ }; _ }
   -> caught := true);
  Alcotest.(check bool) "truncation raises" true !caught

let test_invalid_tag_rejected () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then
              P2p.send comm Datatype.int ~dest:1 ~tag:(-3) [| 1 |]))
   with Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> caught := true);
  Alcotest.(check bool) "negative tag rejected" true !caught

let test_invalid_rank_rejected () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then P2p.send comm Datatype.int ~dest:5 [| 1 |]))
   with Scheduler.Aborted { exn = Errdefs.Usage_error _; _ } -> caught := true);
  Alcotest.(check bool) "bad rank rejected" true !caught

let test_ssend_completes_after_match () =
  (* The sender's clock after an ssend must be >= the receiver's matching
     time: synchronous completion. *)
  let times =
    Engine.run_values ~ranks:2 (fun comm ->
        let rt = Comm.runtime comm in
        if Comm.rank comm = 0 then begin
          P2p.ssend comm Datatype.int ~dest:1 [| 1 |];
          Runtime.clock rt 0
        end
        else begin
          (* Receive only after doing some "work". *)
          Runtime.charge_compute rt 1 0.5;
          ignore (P2p.recv comm Datatype.int ~source:0 ());
          Runtime.clock rt 1
        end)
  in
  Alcotest.(check bool) "sender waited for the late receiver" true (times.(0) >= 0.5)

let test_send_is_eager () =
  (* A plain send must NOT wait for the receiver. *)
  let times =
    Engine.run_values ~ranks:2 (fun comm ->
        let rt = Comm.runtime comm in
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 [| 1 |];
          Runtime.clock rt 0
        end
        else begin
          Runtime.charge_compute rt 1 0.5;
          ignore (P2p.recv comm Datatype.int ~source:0 ());
          0.
        end)
  in
  Alcotest.(check bool) "sender did not wait" true (times.(0) < 0.4)

let test_isend_irecv_wait () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          let req = P2p.isend comm Datatype.int ~dest:1 [| 5; 6 |] in
          ignore (Request.wait req);
          [||]
        end
        else begin
          let buf = Array.make 2 0 in
          let req = P2p.irecv_into comm Datatype.int ~source:0 buf in
          ignore (Request.wait req);
          buf
        end)
  in
  Alcotest.(check (array int)) "irecv data" [| 5; 6 |] results.(1)

let test_wait_any () =
  let results =
    Engine.run_values ~ranks:3 (fun comm ->
        match Comm.rank comm with
        | 0 ->
            (* Two dynamic receives, completed in sender order. *)
            let r1, _ = P2p.irecv comm Datatype.int ~source:1 () in
            let r2, _ = P2p.irecv comm Datatype.int ~source:2 () in
            let i, _ = Request.wait_any [ r1; r2 ] in
            ignore (Request.wait r1);
            ignore (Request.wait r2);
            i
        | 1 ->
            P2p.send comm Datatype.int ~dest:0 [| 1 |];
            -1
        | _ ->
            P2p.send comm Datatype.int ~dest:0 [| 2 |];
            -1)
  in
  Alcotest.(check bool) "wait_any returned a valid index" true
    (results.(0) = 0 || results.(0) = 1)

let test_request_idempotent () =
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send comm Datatype.int ~dest:1 [| 9 |];
          true
        end
        else begin
          let r, cell = P2p.irecv comm Datatype.int ~source:0 () in
          ignore (Request.wait r);
          let d1 = !cell in
          ignore (Request.wait r);
          d1 != None && d1 == !cell
        end)
  in
  Alcotest.(check bool) "wait is idempotent" true results.(1)

let test_recv_from_failed_raises () =
  let caught = ref false in
  (try
     ignore
       (Engine.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then Fault.die comm
            else ignore (P2p.recv comm Datatype.int ~source:0 ())))
   with
  | Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_proc_failed; _ }; _ }
  -> caught := true);
  Alcotest.(check bool) "recv-from-dead raises PROC_FAILED" true !caught

let test_send_bytes_roundtrip () =
  let payload = Bytes.of_string "hello wire" in
  let results =
    run2 (fun comm ->
        if Comm.rank comm = 0 then begin
          P2p.send_bytes comm ~dest:1 payload;
          Bytes.empty
        end
        else fst (P2p.recv_bytes comm ~source:0 ()))
  in
  Alcotest.(check string) "bytes payload" "hello wire" (Bytes.to_string results.(1))

let test_sendrecv () =
  let results =
    Engine.run_values ~ranks:4 (fun comm ->
        let r = Comm.rank comm in
        let n = Comm.size comm in
        let data, _ =
          P2p.sendrecv comm Datatype.int ~dest:((r + 1) mod n) ~source:((r + n - 1) mod n)
            [| r |]
        in
        data.(0))
  in
  Alcotest.(check (array int)) "ring shift" [| 3; 0; 1; 2 |] results

(* ------------------------------------------------------------------ *)
(* Mailbox unit tests: the O(1) structures must keep MPI matching
   semantics, reclaim drained state, and refuse to cancel a matched
   receive. *)

let mk_msg ?(context = 0) ~src ~tag ~seq () =
  Message.make ~context ~src ~dst:0 ~tag ~payload:(Bytes.create 8) ~payload_off:0
    ~payload_len:8 ~count:8 ~signature:(Signature.of_base Signature.Blob)
    ~sent_at:0. ~arrival:0. ~seq ~sync:false ()

let test_mailbox_cancel_after_match_fails () =
  let mb = Mailbox.create () in
  let p = Mailbox.post mb ~context:0 ~src:1 ~tag:5 ~now:0. in
  Alcotest.(check bool) "message matches the posted recv" true
    (Mailbox.deliver mb (mk_msg ~src:1 ~tag:5 ~seq:0 ()));
  let raised =
    try
      Mailbox.cancel mb p;
      false
    with Errdefs.Usage_error _ -> true
  in
  Alcotest.(check bool) "cancel after match is a usage error" true raised;
  Mailbox.retire mb p;
  (* An unmatched posted receive still cancels fine. *)
  let q = Mailbox.post mb ~context:0 ~src:1 ~tag:6 ~now:0. in
  Mailbox.cancel mb q;
  Alcotest.(check int) "posted set empty again" 0 (Mailbox.posted_depth mb)

let test_mailbox_unexpected_reclaim () =
  let mb = Mailbox.create () in
  for i = 0 to 9 do
    Alcotest.(check bool) "unexpected" false
      (Mailbox.deliver mb (mk_msg ~src:i ~tag:i ~seq:i ()))
  done;
  Alcotest.(check int) "one live key per (src, tag)" 10
    (Mailbox.unexpected_key_count mb);
  for i = 0 to 9 do
    if Mailbox.find_unexpected mb ~context:0 ~src:i ~tag:i = None then
      Alcotest.fail "delivered message not found"
  done;
  Alcotest.(check int) "drained keys reclaimed" 0 (Mailbox.unexpected_key_count mb);
  Alcotest.(check int) "no unexpected left" 0 (Mailbox.unexpected_depth mb)

let test_mailbox_posted_tombstone_bound () =
  let mb = Mailbox.create () in
  (* A long-lived receive waits at the front; the cancelled ones behind
     it must leave the waiting FIFO, not pile up behind it. *)
  let keep = Mailbox.post mb ~context:0 ~src:99 ~tag:99 ~now:0. in
  for i = 0 to 199 do
    let p = Mailbox.post mb ~context:0 ~src:1 ~tag:(i mod 7) ~now:0. in
    Mailbox.cancel mb p
  done;
  Alcotest.(check int) "one live posted recv" 1 (Mailbox.posted_depth mb);
  Alcotest.(check bool) "cancelled receives left the FIFO" true
    (Mailbox.posted_physical_length mb <= 32);
  Mailbox.cancel mb keep

(* Regression: a receive that matches an unexpected message at [post]
   never enters the waiting FIFO, so retiring it must not touch the live
   count (it once drifted negative). *)
let test_mailbox_immediate_match_keeps_depth () =
  let mb = Mailbox.create () in
  let keep = Mailbox.post mb ~context:0 ~src:99 ~tag:99 ~now:0. in
  for i = 0 to 39 do
    ignore (Mailbox.deliver mb (mk_msg ~src:1 ~tag:5 ~seq:i ()));
    let p = Mailbox.post mb ~context:0 ~src:1 ~tag:5 ~now:0. in
    Alcotest.(check bool) "matched at post" true (p.Mailbox.p_msg != Message.nil);
    Mailbox.retire mb p;
    Alcotest.(check int) "depth = live receives" 1 (Mailbox.posted_depth mb)
  done;
  Alcotest.(check int) "only the live receive is queued" 1
    (Mailbox.posted_physical_length mb);
  Mailbox.cancel mb keep;
  Alcotest.(check int) "no live receives" 0 (Mailbox.posted_depth mb)

let test_mailbox_wildcard_oldest_across_keys () =
  let mb = Mailbox.create () in
  (* Arrival order deliberately disagrees with key hash order. *)
  ignore (Mailbox.deliver mb (mk_msg ~src:3 ~tag:1 ~seq:7 ()));
  ignore (Mailbox.deliver mb (mk_msg ~src:1 ~tag:2 ~seq:2 ()));
  ignore (Mailbox.deliver mb (mk_msg ~src:2 ~tag:3 ~seq:5 ()));
  match
    Mailbox.find_unexpected mb ~context:0 ~src:Mailbox.any_source ~tag:Mailbox.any_tag
  with
  | Some m -> Alcotest.(check int) "oldest seq wins" 2 m.Message.seq
  | None -> Alcotest.fail "wildcard found nothing"

(* A message's virtual times are stamps: every non-negative float comes
   back bit for bit, and stamps order like the times (2.0 is where the
   pattern's top bit turns on). *)
let prop_stamps_round_trip_and_order =
  let time =
    QCheck.(
      oneof
        [
          make Gen.(float_bound_inclusive 4.);
          make Gen.(map Float.abs float);
          oneofl [ 0.; 2.; Float.pred 2.; Float.succ 2.; Float.min_float; infinity ];
        ])
  in
  QCheck.Test.make ~name:"message stamps: bit-exact and ordered" ~count:500
    (QCheck.pair time time) (fun (a, b) ->
      let bits x = Int64.bits_of_float x in
      Int64.equal (bits (Message.time (Message.stamp a))) (bits a)
      && Int.compare (Message.stamp a) (Message.stamp b) = Float.compare a b
      && Message.stamp a <> Message.not_matched)

(* Model-based check: random deliver / post / retire-or-cancel / resolve
   sequences against a naive reference mailbox — unexpected messages in
   one arrival-ordered list, live posted receives in one posting-ordered
   list, every match a linear scan.  Enough distinct keys over three
   contexts grow the table several times, collide probe chains, and the
   final drain shrinks it back to its minimum. *)

type mb_op =
  | Deliver of int * int * int  (** context, src, tag *)
  | Post of int * int * int  (** context, src or any_source, tag or any_tag *)
  | Drop of int  (** retire (matched) or cancel (unmatched) the i-th live receive *)
  | Resolve of int * int  (** deferred wildcard receive in a context, candidate i *)

let reserved_tag = Mailbox.max_user_tag + 3

let show_op = function
  | Deliver (c, s, t) -> Printf.sprintf "deliver(%d,%d,%d)" c s t
  | Post (c, s, t) -> Printf.sprintf "post(%d,%d,%d)" c s t
  | Drop i -> Printf.sprintf "drop %d" i
  | Resolve (c, i) -> Printf.sprintf "resolve(%d,%d)" c i

let arb_mb_ops =
  let open QCheck.Gen in
  let ctx = int_range 1 3 and src = int_range 0 7 in
  let tag = frequency [ (15, int_range 0 15); (1, return reserved_tag) ] in
  let pat g any = frequency [ (3, g); (1, return any) ] in
  let op ~deliver =
    frequency
      [
        (deliver, map3 (fun c s t -> Deliver (c, s, t)) ctx src tag);
        ( 10 - deliver,
          map3
            (fun c s t -> Post (c, s, t))
            ctx (pat src Mailbox.any_source) (pat tag Mailbox.any_tag) );
        (2, map (fun i -> Drop i) nat);
        (1, map2 (fun c i -> Resolve (c, i)) ctx nat);
      ]
  in
  (* A filling phase, then a draining one. *)
  let gen =
    map2 ( @ )
      (list_size (int_range 0 300) (op ~deliver:8))
      (list_size (int_range 0 300) (op ~deliver:2))
  in
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen

(* A reference posted receive: its pattern and the seq it matched (-1). *)
type ref_posted = { r_ctx : int; r_src : int; r_tag : int; mutable r_seq : int }

let pattern_matches ~ctx ~src ~tag (m : Message.t) =
  m.Message.context = ctx
  && Mailbox.src_matches src m.Message.src
  && Mailbox.tag_matches tag m.Message.tag

let same_key (a : Message.t) (b : Message.t) =
  a.Message.context = b.Message.context && a.Message.src = b.Message.src
  && a.Message.tag = b.Message.tag

let seq_of (m : Message.t) = if m == Message.nil then -1 else m.Message.seq

let prop_mailbox_matches_reference =
  QCheck.Test.make ~name:"mailbox = naive list reference" ~count:60 arb_mb_ops (fun ops ->
      let mb = Mailbox.create () in
      let unexp = ref [] (* arrival (= seq) order *) in
      let live = ref [] (* (handle, reference) in posting order *) in
      let next_seq = ref 0 in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      let take_ref ~ctx ~src ~tag =
        match List.find_opt (pattern_matches ~ctx ~src ~tag) !unexp with
        | Some m ->
            unexp := List.filter (fun x -> x != m) !unexp;
            seq_of m
        | None -> -1
      in
      let is_head m = List.find (fun x -> same_key x m) !unexp == m in
      let drop (p, r) = if r.r_seq >= 0 then Mailbox.retire mb p else Mailbox.cancel mb p in
      let check_pattern ~ctx ~src ~tag =
        let eligible = List.filter (pattern_matches ~ctx ~src ~tag) !unexp in
        let heads = List.filter is_head eligible in
        let got_heads, pruned = Mailbox.candidate_heads mb ~context:ctx ~src ~tag in
        if Mailbox.count_eligible mb ~context:ctx ~src ~tag <> List.length eligible then
          fail "count_eligible (%d,%d,%d)" ctx src tag;
        if List.map seq_of got_heads <> List.map seq_of heads then
          fail "candidate_heads (%d,%d,%d)" ctx src tag;
        if pruned <> List.length eligible - List.length heads then
          fail "pruned count (%d,%d,%d)" ctx src tag
      in
      let agree ctx src tag =
        let keys = List.filter is_head !unexp in
        let slots = Mailbox.unexpected_slots mb in
        let n_keys = Mailbox.unexpected_key_count mb in
        if Mailbox.unexpected_depth mb <> List.length !unexp then fail "unexpected_depth";
        if Mailbox.posted_depth mb <> List.length !live then fail "posted_depth";
        if n_keys <> List.length keys then fail "unexpected_key_count";
        if slots < 16 || 2 * n_keys > slots || (slots > 16 && 8 * n_keys < slots) then
          fail "table of %d slots for %d keys" slots n_keys;
        List.iter
          (fun (p, r) ->
            if seq_of p.Mailbox.p_msg <> r.r_seq then fail "posted receive's match")
          !live;
        List.iter
          (fun (s, t) -> check_pattern ~ctx ~src:s ~tag:t)
          [
            (src, tag);
            (Mailbox.any_source, tag);
            (src, Mailbox.any_tag);
            (Mailbox.any_source, Mailbox.any_tag);
          ]
      in
      let step = function
        | Deliver (c, s, t) ->
            let m = mk_msg ~context:c ~src:s ~tag:t ~seq:!next_seq () in
            incr next_seq;
            let waiting (_, r) =
              r.r_seq < 0 && pattern_matches ~ctx:r.r_ctx ~src:r.r_src ~tag:r.r_tag m
            in
            let expected =
              match List.find_opt waiting !live with
              | Some (_, r) ->
                  r.r_seq <- m.Message.seq;
                  true
              | None ->
                  unexp := !unexp @ [ m ];
                  false
            in
            if Mailbox.deliver mb m <> expected then fail "deliver's match";
            agree c s t
        | Post (c, s, t) ->
            let p = Mailbox.post mb ~context:c ~src:s ~tag:t ~now:0. in
            let expected = take_ref ~ctx:c ~src:s ~tag:t in
            if seq_of p.Mailbox.p_msg <> expected then fail "post's match";
            if p.Mailbox.p_msg.Message.next != Message.nil then fail "taken message linked";
            if expected >= 0 then Mailbox.retire mb p
            else live := !live @ [ (p, { r_ctx = c; r_src = s; r_tag = t; r_seq = -1 }) ];
            agree c s t
        | Drop i ->
            (match !live with
            | [] -> ()
            | l ->
                let e = List.nth l (i mod List.length l) in
                drop e;
                live := List.filter (fun x -> x != e) l);
            agree 1 0 0
        | Resolve (c, i) ->
            let any_s = Mailbox.any_source and any_t = Mailbox.any_tag in
            Mailbox.set_defer_wildcards mb true;
            let p = Mailbox.post mb ~context:c ~src:any_s ~tag:any_t ~now:0. in
            Mailbox.set_defer_wildcards mb false;
            if not p.Mailbox.p_deferred then fail "wildcard post not deferred";
            let non_head m =
              pattern_matches ~ctx:c ~src:any_s ~tag:any_t m && not (is_head m)
            in
            (match List.find_opt non_head !unexp with
            | Some m -> (
                match Mailbox.resolve_deferred mb p m with
                | () -> fail "resolved with a message that is not a head"
                | exception Invalid_argument _ -> ())
            | None -> ());
            (match Mailbox.candidate_heads mb ~context:c ~src:any_s ~tag:any_t with
            | [], _ -> Mailbox.cancel mb p
            | heads, _ ->
                let m = List.nth heads (i mod List.length heads) in
                Mailbox.resolve_deferred mb p m;
                unexp := List.filter (fun x -> x != m) !unexp;
                if seq_of p.Mailbox.p_msg <> m.Message.seq then fail "resolved match";
                Mailbox.retire mb p);
            agree c any_s any_t
      in
      List.iter step ops;
      (* Drain everything: the table must come back to its minimum. *)
      List.iter drop !live;
      live := [];
      List.iter
        (fun (c, tag) ->
          let rec drain () =
            match Mailbox.find_unexpected mb ~context:c ~src:Mailbox.any_source ~tag with
            | Some m ->
                if m.Message.seq <> take_ref ~ctx:c ~src:Mailbox.any_source ~tag then
                  fail "drain order";
                drain ()
            | None -> ()
          in
          drain ())
        [
          (1, Mailbox.any_tag);
          (2, Mailbox.any_tag);
          (3, Mailbox.any_tag);
          (1, reserved_tag);
          (2, reserved_tag);
          (3, reserved_tag);
        ];
      agree 1 0 0;
      Mailbox.unexpected_key_count mb = 0 && Mailbox.unexpected_slots mb = 16)

(* The data plane must move exactly the bytes the program sends: pooled
   buffers and slice hand-off change ownership, never volume. *)
let test_pingpong_byte_volume () =
  let iters = 5 and bytes = 64 in
  let report =
    Engine.run ~ranks:2 (fun comm ->
        let payload = Array.make bytes 'x' in
        if Comm.rank comm = 0 then
          for _ = 1 to iters do
            P2p.send comm Datatype.byte ~dest:1 payload;
            ignore (P2p.recv comm Datatype.byte ~source:1 ())
          done
        else
          for _ = 1 to iters do
            ignore (P2p.recv comm Datatype.byte ~source:0 ());
            P2p.send comm Datatype.byte ~dest:0 payload
          done)
  in
  let find op =
    match List.find_opt (fun (o, _, _) -> o = op) report.Engine.profile with
    | Some (_, calls, b) -> (calls, b)
    | None -> (0, 0)
  in
  Alcotest.(check (pair int int))
    "send calls and bytes"
    (2 * iters, 2 * iters * bytes)
    (find "send");
  Alcotest.(check (pair int int))
    "recv calls and bytes"
    (2 * iters, 2 * iters * bytes)
    (find "recv")

(* ------------------------------------------------------------------ *)
(* Allocation budget of the ad-hoc message path (sequential scheduler).
   Each blocking message may allocate its message record and, when its
   receive has to wait, the posted-receive record and the fiber's park
   (its continuation and state), plus what the caller asks for (here the
   status and the boxed [~source]); everything else on the path — writer
   and reader records, time stamps, the latency sample, lock, span and
   profiling plumbing, signatures, pool bookkeeping — must cost nothing.
   The per-message figures are exact and repeatable, so the bounds are
   the measured values. *)

let words_per_message_budget = 40.

(* Minor words per call of [f], averaged over many calls after a warm-up. *)
let words_per_call ?(n = 10_000) f =
  for _ = 1 to 100 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The mailbox alone, steady state over 10k messages: a message that
   arrives first is queued and taken by the receive's post, and a receive
   posted first waits in the posted FIFO until the delivery; either way
   [Mailbox.post] allocates only the posted record (10 words). *)
let mailbox_words ~post_first =
  let mb = Mailbox.create () in
  let m = mk_msg ~src:1 ~tag:5 ~seq:0 () in
  words_per_call (fun () ->
      if post_first then begin
        let p = Mailbox.post mb ~context:0 ~src:1 ~tag:5 ~now:0. in
        ignore (Mailbox.deliver mb m);
        Mailbox.retire mb p
      end
      else begin
        ignore (Mailbox.deliver mb m);
        Mailbox.retire mb (Mailbox.post mb ~context:0 ~src:1 ~tag:5 ~now:0.)
      end)

let test_mailbox_deliver_then_post_budget () =
  let words = mailbox_words ~post_first:false in
  if words > 10. then Alcotest.failf "deliver then post: %.2f words per message" words

let test_mailbox_post_then_deliver_budget () =
  let words = mailbox_words ~post_first:true in
  if words > 10. then Alcotest.failf "post then deliver: %.2f words per message" words

(* 10k distinct window tags, up to 100 live at once: the table grows to
   hold them, never past load 1/8 of its peak, and returns to its 16
   slots once they drain. *)
let test_mailbox_window_tags_bounded () =
  let mb = Mailbox.create () in
  let window = 100 and peak = ref 0 in
  let take tag =
    match Mailbox.find_unexpected mb ~context:0 ~src:1 ~tag with
    | Some m -> Alcotest.(check int) "oldest of its tag" tag m.Message.seq
    | None -> Alcotest.failf "window tag %d lost" tag
  in
  for tag = 0 to 9_999 do
    ignore (Mailbox.deliver mb (mk_msg ~src:1 ~tag ~seq:tag ()));
    if tag >= window then take (tag - window);
    peak := max !peak (Mailbox.unexpected_slots mb)
  done;
  for tag = 10_000 - window to 9_999 do
    take tag
  done;
  Alcotest.(check int) "peak slots" 256 !peak;
  Alcotest.(check int) "no live keys" 0 (Mailbox.unexpected_key_count mb);
  Alcotest.(check int) "back at 16 slots" 16 (Mailbox.unexpected_slots mb)

(* Minor words per message of a 2-rank ping-pong of [round_trips] round
   trips (two messages each), measured across both ranks' fibers: rank 0
   reads the counter around its loop, and rank 1 runs interleaved with it
   on the sequential scheduler. *)
let pingpong_words ~round_trips ~(send : Comm.t -> int -> unit)
    ~(recv : Comm.t -> int -> unit) =
  let words = ref 0. in
  ignore
    (Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only ~ranks:2
       (fun comm ->
         let me = Comm.rank comm in
         let peer = 1 - me in
         let go n =
           for _ = 1 to n do
             if me = 0 then begin
               send comm peer;
               recv comm peer
             end
             else begin
               recv comm peer;
               send comm peer
             end
           done
         in
         go 50;
         if me = 0 then begin
           let w0 = Gc.minor_words () in
           go round_trips;
           words := Gc.minor_words () -. w0
         end
         else go round_trips));
  !words /. float_of_int (2 * round_trips)

let test_recv_into_pingpong_budget () =
  let payload = Array.make 64 'x' and into = Array.make 64 ' ' in
  let words =
    pingpong_words ~round_trips:2_000
      ~send:(fun comm dest -> P2p.send comm Datatype.byte ~dest payload)
      ~recv:(fun comm source -> ignore (P2p.recv_into comm Datatype.byte ~source into))
  in
  if words > words_per_message_budget then
    Alcotest.failf "send/recv_into: %.1f words per message (budget %.0f)" words
      words_per_message_budget

(* The fiber's park, alone: a single fiber parks on a slot that is not
   ready at the first poll and ready at the next, so every iteration
   parks once and resumes once.  The slot's closures are built before
   the loop, so what remains is the continuation and its [Waiting]
   state. *)
let scheduler_words_per_iteration body =
  let words = ref 0. and n = 10_000 in
  ignore
    (Scheduler.run ~progress:(fun () -> 0) ~nfibers:1 (fun _ ->
         for _ = 1 to 100 do
           body ()
         done;
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           body ()
         done;
         words := Gc.minor_words () -. w0));
  !words /. float_of_int n

let park_budget = 5.

let test_park_resume_budget () =
  let flip = ref false and polls = ref 0 in
  let ready () =
    incr polls;
    flip := not !flip;
    not !flip
  in
  let describe () = "flip" in
  let words = scheduler_words_per_iteration (fun () -> Scheduler.wait ~describe ~ready) in
  Alcotest.(check int) "every wait failed its first poll" (2 * 10_100) !polls;
  if words > park_budget then
    Alcotest.failf "park and resume: %.2f words (budget %.0f)" words park_budget

let test_yield_budget () =
  let words = scheduler_words_per_iteration Scheduler.yield in
  if words > park_budget then
    Alcotest.failf "yield: %.2f words (budget %.0f)" words park_budget

let test_kamping_recv_pingpong_budget () =
  let count = 64 in
  let payload = Array.make count 'x' in
  (* One wrapper per rank, built once: the two ranks' fibers alternate,
     so a single cached wrapper would be rebuilt on every call. *)
  let kcomms = Array.make 2 None in
  let comm_of mpi =
    match kcomms.(Comm.rank mpi) with
    | Some c -> c
    | None ->
        let c = Kamping.Communicator.of_mpi mpi in
        kcomms.(Comm.rank mpi) <- Some c;
        c
  in
  let got = ref [||] in
  let words =
    pingpong_words ~round_trips:2_000
      ~send:(fun mpi dest -> Kamping.P2p.send (comm_of mpi) Datatype.byte ~dest payload)
      ~recv:(fun mpi source -> got := Kamping.P2p.recv (comm_of mpi) Datatype.byte ~source ())
  in
  Alcotest.(check int) "received the payload" count (Array.length !got);
  (* A [count]-element char array is [count] words plus its header. *)
  let budget = words_per_message_budget +. float_of_int (count + 1) in
  if words > budget then
    Alcotest.failf "Kamping send/recv: %.1f words per message (budget %.0f)" words budget

(* A receive whose message is already queued takes it with no posted
   record and no park: rank 1 queues a batch, then a marker; once rank 0
   has the marker, the batch is in its mailbox, and rank 0 counts the
   words of receiving it.  Nothing else runs meanwhile, so the count is
   the receive's alone: [recv_range] (a collective's receive step, no
   status and no optional arguments) allocates nothing. *)
let test_queued_receive_words () =
  let batch = 100 and rounds = 50 in
  let payload = Array.make 8 7 and into = Array.make 8 0 in
  let words = ref 0. in
  ignore
    (Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only ~ranks:2
       (fun comm ->
         for round = 1 to rounds do
           if Comm.rank comm = 1 then begin
             for _ = 1 to batch do
               P2p.send comm Datatype.int ~dest:0 ~tag:0 payload
             done;
             P2p.send comm Datatype.int ~dest:0 ~tag:1 payload
           end
           else begin
             ignore
               (P2p.recv_range comm Datatype.int ~source:1 ~tag:1 ~pos:0 ~maxcount:8 into);
             let w0 = Gc.minor_words () in
             for _ = 1 to batch do
               ignore
                 (P2p.recv_range comm Datatype.int ~source:1 ~tag:0 ~pos:0 ~maxcount:8 into)
             done;
             if round > 1 then words := !words +. (Gc.minor_words () -. w0)
           end
         done));
  let words = !words /. float_of_int (batch * (rounds - 1)) in
  Alcotest.(check (float 0.01)) "words per queued receive" 0. words

(* Minor words per blocking collective call, summed over 4 ranks: rank 0
   counts across its loop while the other ranks run interleaved with it.
   Beyond its results and scratch, a call allocates its messages (19
   words each) and a posted record and a park for each receive that
   waits; its entry and algorithm dispatch build no closure. *)
let coll_words ~calls f =
  let words = ref 0. in
  ignore
    (Engine.run ~model:Net_model.omnipath ~clock_mode:Runtime.Virtual_only ~ranks:4
       (fun comm ->
         for _ = 1 to 20 do
           f comm
         done;
         if Comm.rank comm = 0 then begin
           let w0 = Gc.minor_words () in
           for _ = 1 to calls do
             f comm
           done;
           words := Gc.minor_words () -. w0
         end
         else
           for _ = 1 to calls do
             f comm
           done));
  !words /. float_of_int calls

let test_coll_words_per_call () =
  let data = Array.make 16 1 in
  let allreduce =
    coll_words ~calls:2_000 (fun comm ->
        ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum data))
  in
  (* Rank r sends d + 1 elements to rank d. *)
  let send_counts = [| 1; 2; 3; 4 |] and send_displs = [| 0; 1; 3; 6 |] in
  let send = Array.make 10 3 in
  let recv_counts = Array.init 4 (fun r -> Array.make 4 (r + 1)) in
  let recv_displs = Array.init 4 (fun r -> Array.init 4 (fun s -> s * (r + 1))) in
  let alltoallv =
    coll_words ~calls:2_000 (fun comm ->
        let r = Comm.rank comm in
        ignore
          (Coll.alltoallv comm Datatype.int ~send_counts ~send_displs
             ~recv_counts:recv_counts.(r) ~recv_displs:recv_displs.(r) send))
  in
  if allreduce > 472. then
    Alcotest.failf "allreduce of 16 ints: %.1f words per call (budget 472)" allreduce;
  if alltoallv > 420. then
    Alcotest.failf "alltoallv of 1..4 ints: %.1f words per call (budget 420)" alltoallv

let test_profiling_record_allocation_free () =
  let prof = Profiling.create () in
  Profiling.record prof ~op:"send" ~bytes:1;
  let words = words_per_call (fun () -> Profiling.record prof ~op:"send" ~bytes:64) in
  Alcotest.(check (float 0.01)) "words per record" 0. words;
  Alcotest.(check int) "calls counted" 10_101 (Profiling.calls prof ~op:"send")

(* A slot op enters the table at its first call, exactly as [record]
   would enter it, and is free afterwards. *)
let test_profiling_slot_first_call () =
  let slotted = Profiling.create () and plain = Profiling.create () in
  Profiling.set_enabled slotted false;
  Profiling.record_slot slotted ~slot:0 ~op:"send" ~bytes:8;
  Alcotest.(check int) "a disabled table registers nothing" 0
    (List.length (Profiling.snapshot slotted));
  Profiling.set_enabled slotted true;
  Profiling.record_slot slotted ~slot:0 ~op:"send" ~bytes:8;
  Profiling.record plain ~op:"send" ~bytes:8;
  let words =
    words_per_call (fun () -> Profiling.record_slot slotted ~slot:0 ~op:"send" ~bytes:64)
  in
  ignore (words_per_call (fun () -> Profiling.record plain ~op:"send" ~bytes:64));
  Alcotest.(check (float 0.01)) "words per record" 0. words;
  Alcotest.(check (list (triple string int int)))
    "the table [record] builds" (Profiling.snapshot plain) (Profiling.snapshot slotted)

let test_charge_copy_allocation_free () =
  let rt =
    Runtime.create ~clock_mode:Runtime.Virtual_only ~model:Net_model.omnipath ~size:1 ()
  in
  let words = words_per_call (fun () -> Runtime.charge_copy rt 0 ~bytes:64) in
  Alcotest.(check (float 0.01)) "words per charge" 0. words;
  Alcotest.(check bool) "clock advanced" true (Runtime.clock rt 0 > 0.)

let test_signature_check_allocation_free () =
  let dt = Datatype.pair Datatype.int Datatype.float in
  let msg =
    Message.make ~context:0 ~src:1 ~dst:0 ~tag:0 ~payload:(Bytes.create 8) ~payload_off:0
      ~payload_len:8 ~count:5 ~signature:dt.Datatype.signature ~sent_at:0. ~arrival:0. ~seq:0
      ~sync:false ()
  in
  (* A structurally equal but physically distinct element signature: the
     check must not depend on sharing. *)
  let recv_sig = List.map Fun.id dt.Datatype.signature in
  let ok = ref true in
  let words =
    words_per_call (fun () ->
        if not (Signature.repeats_match recv_sig msg.Message.signature msg.Message.count)
        then ok := false)
  in
  Alcotest.(check bool) "signatures match" true !ok;
  Alcotest.(check (float 0.01)) "words per check" 0. words;
  Alcotest.(check bool) "same answer as the full signatures" true
    (Signature.matches
       (Datatype.signature_of_count dt msg.Message.count)
       (Message.payload_signature msg))

let test_pool_hit_allocates_writer_only () =
  let pool = Wire.create_pool () in
  Wire.recycle pool (Bytes.create 64);
  let words =
    words_per_call (fun () ->
        let w = Wire.acquire pool ~capacity:64 in
        Wire.recycle pool (Wire.writer_storage w))
  in
  (* At most the writer record: two fields and a header. *)
  if words > 3.01 then Alcotest.failf "acquire+recycle: %.2f words (writer record is 3)" words;
  let hits, misses, free = Wire.pool_stats pool in
  Alcotest.(check (triple int int int)) "every acquire hit" (10_100, 0, 1) (hits, misses, free)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* A mismatch is still an ERR_TYPE, reported with the full signatures of
   both sides. *)
let test_signature_mismatch_still_detected () =
  let raised =
    try
      ignore
        (run2 (fun comm ->
             if Comm.rank comm = 0 then P2p.send comm Datatype.int ~dest:1 [| 1; 2 |]
             else ignore (P2p.recv comm Datatype.float ~source:0 ())));
      None
    with
    | Errdefs.Mpi_error { code = Errdefs.Err_type; msg } -> Some msg
    | Scheduler.Aborted { exn = Errdefs.Mpi_error { code = Errdefs.Err_type; msg }; _ } ->
        Some msg
  in
  match raised with
  | None -> Alcotest.fail "int message received as float without a type error"
  | Some msg ->
      Alcotest.(check bool)
        (Printf.sprintf "report names both full signatures: %s" msg)
        true
        (contains msg "float64[2]" && contains msg "int64[2]")

let tests =
  [
    Alcotest.test_case "basic send/recv" `Quick test_basic_send_recv;
    Alcotest.test_case "status fields" `Quick test_status_fields;
    Alcotest.test_case "non-overtaking order" `Quick test_nonovertaking_same_pair;
    Alcotest.test_case "tag selectivity" `Quick test_tag_selectivity;
    Alcotest.test_case "wildcard oldest-first" `Quick test_any_source_oldest_first;
    Alcotest.test_case "wildcard tag skips collective traffic" `Quick
      test_wildcard_tag_skips_collective_traffic;
    Alcotest.test_case "probe then recv" `Quick test_probe_then_recv;
    Alcotest.test_case "iprobe empty" `Quick test_iprobe_empty;
    Alcotest.test_case "truncation error" `Quick test_truncation_error;
    Alcotest.test_case "invalid tag rejected" `Quick test_invalid_tag_rejected;
    Alcotest.test_case "invalid rank rejected" `Quick test_invalid_rank_rejected;
    Alcotest.test_case "ssend synchronous completion" `Quick test_ssend_completes_after_match;
    Alcotest.test_case "send is eager" `Quick test_send_is_eager;
    Alcotest.test_case "isend/irecv/wait" `Quick test_isend_irecv_wait;
    Alcotest.test_case "wait_any" `Quick test_wait_any;
    Alcotest.test_case "request idempotence" `Quick test_request_idempotent;
    Alcotest.test_case "recv from failed" `Quick test_recv_from_failed_raises;
    Alcotest.test_case "raw bytes transfer" `Quick test_send_bytes_roundtrip;
    Alcotest.test_case "sendrecv ring" `Quick test_sendrecv;
    Alcotest.test_case "mailbox: cancel after match fails" `Quick
      test_mailbox_cancel_after_match_fails;
    Alcotest.test_case "mailbox: drained keys reclaimed" `Quick
      test_mailbox_unexpected_reclaim;
    Alcotest.test_case "mailbox: tombstones bounded" `Quick
      test_mailbox_posted_tombstone_bound;
    Alcotest.test_case "mailbox: immediate match keeps posted depth" `Quick
      test_mailbox_immediate_match_keeps_depth;
    Alcotest.test_case "mailbox: wildcard oldest across keys" `Quick
      test_mailbox_wildcard_oldest_across_keys;
    QCheck_alcotest.to_alcotest prop_mailbox_matches_reference;
    QCheck_alcotest.to_alcotest prop_stamps_round_trip_and_order;
    Alcotest.test_case "pingpong byte volume" `Quick test_pingpong_byte_volume;
    Alcotest.test_case "alloc: send/recv_into per-message budget" `Quick
      test_recv_into_pingpong_budget;
    Alcotest.test_case "alloc: kamping recv per-message budget" `Quick
      test_kamping_recv_pingpong_budget;
    Alcotest.test_case "alloc: receive of an already-queued message" `Quick
      test_queued_receive_words;
    Alcotest.test_case "alloc: 4-rank allreduce/alltoallv words per call" `Quick
      test_coll_words_per_call;
    Alcotest.test_case "alloc: park and resume budget" `Quick test_park_resume_budget;
    Alcotest.test_case "alloc: yield budget" `Quick test_yield_budget;
    Alcotest.test_case "alloc: mailbox deliver-then-post budget" `Quick
      test_mailbox_deliver_then_post_budget;
    Alcotest.test_case "alloc: mailbox post-then-deliver budget" `Quick
      test_mailbox_post_then_deliver_budget;
    Alcotest.test_case "mailbox: window tags leave a bounded table" `Quick
      test_mailbox_window_tags_bounded;
    Alcotest.test_case "alloc: profiling record is free" `Quick
      test_profiling_record_allocation_free;
    Alcotest.test_case "alloc: profiling slot op appears at its first call" `Quick
      test_profiling_slot_first_call;
    Alcotest.test_case "alloc: charge_copy is free" `Quick test_charge_copy_allocation_free;
    Alcotest.test_case "alloc: signature check is free" `Quick
      test_signature_check_allocation_free;
    Alcotest.test_case "alloc: pool hit allocates the writer only" `Quick
      test_pool_hit_allocates_writer_only;
    Alcotest.test_case "signature mismatch names full signatures" `Quick
      test_signature_mismatch_still_detected;
  ]

let () = Alcotest.run "p2p" [ ("p2p", tests) ]
