(* Named verification programs.

   A small registry of self-contained simulated MPI programs used by
   [repro_cli verify] / [repro_cli prog] and by the verify-smoke CI job:
   three seeded violation classes (wildcard nondeterminism, deadlock
   cycle, collective mismatch), one race that a single instrumented run
   cannot see (hidden_race — the analyzer's showcase), and clean
   programs the model checker certifies deadlock-free.

   Each body takes the communicator only; [ranks_hint] is the smallest
   process count at which the program exhibits its documented
   behaviour. *)

type prog = {
  name : string;
  ranks_hint : int;
  doc : string;
  body : Comm.t -> unit;
}

(* Rank 1 sends two different-tag messages to rank 0; rank 0 consumes
   them with two fully wildcard receives.  The two unexpected-queue
   heads are concurrent candidates for the first receive, so the model
   checker branches (nondet-match) and a real MPI may deliver either
   order. *)
let wildcard_race comm =
  let me = Comm.rank comm in
  if me = 0 then begin
    ignore (P2p.recv comm Datatype.int ());
    ignore (P2p.recv comm Datatype.int ())
  end
  else if me = 1 then begin
    P2p.send comm Datatype.int ~dest:0 ~tag:1 [| 10 |];
    P2p.send comm Datatype.int ~dest:0 ~tag:2 [| 20 |]
  end

(* Every non-root rank sends one message; the root drains them with
   wildcard receives.  Under the deterministic scheduler rank 0 posts
   each receive *before* the competing sends arrive, so Mpicheck's
   runtime wildcard counter (which probes candidates at post time) stays
   at zero — yet the senders are causally concurrent, which the offline
   vector-clock analyzer proves.  Run at p >= 3 for two senders. *)
let hidden_race comm =
  let me = Comm.rank comm in
  if me = 0 then
    for _ = 2 to Comm.size comm do
      ignore (P2p.recv comm Datatype.int ())
    done
  else P2p.send comm Datatype.int ~dest:0 ~tag:0 [| me |]

(* Head-to-head blocking receives with explicit sources and no sends:
   the classic wait-for cycle.  Deadlocks at any p >= 2. *)
let deadlock comm =
  let me = Comm.rank comm in
  let peer = (me + 1) mod Comm.size comm in
  ignore (P2p.recv comm Datatype.int ~source:peer ~tag:0 ())

(* Rank 0 enters a barrier while everyone else enters an allgather: a
   collective call-order mismatch the Heavy sanitizer flags. *)
let coll_mismatch comm =
  if Comm.rank comm = 0 then Coll.barrier comm
  else ignore (Coll.allgather comm Datatype.int [| Comm.rank comm |])

(* Deterministic ring shift: explicit sources and tags everywhere, so
   there is nothing to branch on — certified deadlock-free and
   match-deterministic. *)
let clean_ring comm =
  let n = Comm.size comm in
  let me = Comm.rank comm in
  P2p.send comm Datatype.int ~dest:((me + 1) mod n) ~tag:0 [| me |];
  ignore (P2p.recv comm Datatype.int ~source:((me - 1 + n) mod n) ~tag:0 ())

(* Collectives only (commutative allreduce + barrier): no wildcard
   receives at the user level, certified clean. *)
let clean_coll comm =
  ignore (Coll.allreduce comm Datatype.int Reduce_op.int_sum [| Comm.rank comm |]);
  Coll.barrier comm

(* A fully wildcard receive beside a nonblocking allreduce in flight:
   rank 1 sends one user message (tag 7) that rank 0 takes with any
   source and any tag before both wait for the allreduce.  The wildcard
   tag matches user tags only, so the receive can never take one of the
   allreduce's internal messages: certified deadlock-free over every
   wildcard decision. *)
let wildcard_beside_icoll comm =
  let me = Comm.rank comm in
  let req, _ = Coll.iallreduce comm Datatype.int Reduce_op.int_sum [| me |] in
  if me = 1 then P2p.send comm Datatype.int ~dest:0 ~tag:7 [| me |];
  if me = 0 then ignore (P2p.recv comm Datatype.int ~source:P2p.any_source ());
  ignore (Request.wait req)

(* A 4 KiB iallreduce: above the recursive-doubling limit, so it runs
   Rabenseifner, whose allgather sends only after its reduce-scatter has
   received.  The two programs below complete because a blocked rank
   advances what it has posted (MPI's progress rule): certified clean. *)
let iallreduce comm v =
  fst (Coll.iallreduce comm Datatype.int Reduce_op.int_sum (Array.make 512 v))

(* Two allreduces, waited for in opposite orders by even and odd ranks. *)
let opposite_icoll comm =
  let me = Comm.rank comm in
  let a = iallreduce comm me and b = iallreduce comm (10 * me) in
  ignore (Request.wait_all (if me mod 2 = 0 then [ a; b ] else [ b; a ]))

(* Rank 0 blocks receiving from rank 1, which sends only once the
   allreduce rank 0 has posted completes. *)
let recv_beside_icoll comm =
  let me = Comm.rank comm in
  let req = iallreduce comm me in
  if me = 0 then ignore (P2p.recv comm Datatype.int ~source:1 ~tag:0 ());
  ignore (Request.wait req);
  if me = 1 then P2p.send comm Datatype.int ~dest:0 ~tag:0 [| me |]

(* Non-commutative float reduction: contributions from distinct ranks
   are causally concurrent, so the analyzer reports nc-order (the
   combine order is schedule-dependent on a real MPI). *)
let nc_reduce comm =
  let sub = Reduce_op.custom ~commutative:false ~name:"fsub" (fun a b -> a -. b) in
  ignore (Coll.reduce comm Datatype.float sub ~root:0 [| float_of_int (Comm.rank comm + 1) |])

(* One large (>= 64 KiB) eager send: returns before the receiver
   matches, so the analyzer reports the buffer-reuse window a
   rendezvous-protocol MPI would leave unprotected. *)
let big_send comm =
  let me = Comm.rank comm in
  if me = 0 then P2p.send comm Datatype.int ~dest:1 ~tag:0 (Array.make 16384 7)
  else if me = 1 then ignore (P2p.recv comm Datatype.int ~source:0 ~tag:0 ())

let all : prog list =
  [
    {
      name = "wildcard_race";
      ranks_hint = 2;
      doc = "two same-destination sends raced by wildcard receives (nondet-match)";
      body = wildcard_race;
    };
    {
      name = "hidden_race";
      ranks_hint = 3;
      doc =
        "wildcard race invisible to the single-run counter; the offline analyzer \
         proves it from vector clocks";
      body = hidden_race;
    };
    {
      name = "deadlock";
      ranks_hint = 2;
      doc = "head-to-head blocking receives, never satisfied (wait-for cycle)";
      body = deadlock;
    };
    {
      name = "coll_mismatch";
      ranks_hint = 2;
      doc = "rank 0 calls barrier while the others call allgather";
      body = coll_mismatch;
    };
    {
      name = "clean_ring";
      ranks_hint = 2;
      doc = "explicit-source ring shift; certified deadlock-free and deterministic";
      body = clean_ring;
    };
    {
      name = "clean_coll";
      ranks_hint = 2;
      doc = "commutative allreduce + barrier; certified clean";
      body = clean_coll;
    };
    {
      name = "wildcard_beside_icoll";
      ranks_hint = 2;
      doc = "wildcard receive beside an in-flight iallreduce; certified deadlock-free";
      body = wildcard_beside_icoll;
    };
    {
      name = "opposite_icoll";
      ranks_hint = 2;
      doc = "two iallreduces waited in opposite orders by parity; certified clean";
      body = opposite_icoll;
    };
    {
      name = "recv_beside_icoll";
      ranks_hint = 2;
      doc = "recv beside an in-flight iallreduce its sender waits on; certified clean";
      body = recv_beside_icoll;
    };
    {
      name = "nc_reduce";
      ranks_hint = 3;
      doc = "non-commutative reduction with concurrent contributions (nc-order)";
      body = nc_reduce;
    };
    {
      name = "big_send";
      ranks_hint = 2;
      doc = "large eager send with an unprotected buffer-reuse window";
      body = big_send;
    };
  ]

let find name = List.find_opt (fun p -> p.name = name) all

let names () = List.map (fun p -> p.name) all
