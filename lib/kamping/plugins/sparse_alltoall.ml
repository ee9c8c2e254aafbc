(* Sparse all-to-all via the NBX algorithm (Hoefler, Siebert, Lumsdaine,
   PPoPP'10) — the SparseAlltoall plugin of paper §V-A.

   MPI_Alltoallv needs an O(p) counts array even when a rank talks to a
   handful of neighbors; NBX exchanges a dynamic sparse pattern in expected
   O(#neighbors + log p) time with no O(p) term:

   1. synchronous-mode send (issend) every outgoing message;
   2. poll: receive any incoming message (probe + dynamic recv);
   3. once all local issends have completed — i.e. all our messages have
      been matched by their receivers — enter a non-blocking barrier;
   4. keep receiving until the barrier completes — at that point every
      rank's sends have been matched, so no message addressed to us is
      still outstanding.

   The input and output are (rank, block) lists; output is ordered by
   (source, arrival). *)

open Mpisim

let sparse_tag = 4242

let alltoallv (comm : Kamping.Communicator.t) (dt : 'a Datatype.t)
    (outgoing : (int * 'a array) list) : (int * 'a array) list =
  let mpi = Kamping.Communicator.mpi comm in
  Comm.check_collective mpi ~op:"sparse_alltoallv" ~root:(-1) ~ty:"";
  Runtime.record (Comm.runtime mpi) ~op:"sparse_alltoallv" ~bytes:0;
  let send_requests =
    List.map (fun (dest, data) -> P2p.issend mpi dt ~dest ~tag:sparse_tag data) outgoing
  in
  let received = ref [] in
  let barrier = ref None in
  let finished = ref false in
  while not !finished do
    (* The poll loop never parks, so it must watch for failure and
       revocation itself: a member dying mid-exchange would otherwise
       leave the ibarrier permanently incomplete and this loop spinning
       (the deadlock detector only sees parked fibers). *)
    Runtime.check_alive (Comm.runtime mpi) (Comm.world_rank mpi);
    if Comm.any_member_failed mpi then
      Comm.error mpi Errdefs.Err_proc_failed
        "sparse_alltoallv: communicator member failed mid-exchange";
    if Comm.is_revoked mpi then
      Comm.error mpi Errdefs.Err_revoked "sparse_alltoallv: communicator revoked";
    (* Drain all currently probe-able messages. *)
    let drained = ref false in
    while not !drained do
      match P2p.iprobe mpi ~tag:sparse_tag () with
      | Some status ->
          let data, st = P2p.recv mpi dt ~source:(Status.source status) ~tag:sparse_tag () in
          received := (Status.source st, data) :: !received
      | None -> drained := true
    done;
    (match !barrier with
    | None ->
        (* Test only what has not completed: a second test of a
           completed request is a double wait. *)
        let done_ r = Request.is_complete r || Request.test r <> None in
        if List.for_all done_ send_requests then barrier := Some (Coll.ibarrier mpi)
    | Some b -> if Request.test b <> None then finished := true);
    if not !finished then Scheduler.yield ()
  done;
  List.rev !received
