(* Communicator construction: dup, split, graph topologies, and the ULFM
   operations (shrink, agree) that the fault-tolerance plugin (§V-B) builds
   on.

   Context-id agreement is implemented honestly through the network: rank 0
   of the parent allocates fresh context ids and distributes them, so
   communicator creation has a real collective cost.  The shrink and agree
   operations cannot be routed through a fixed rank (it may be dead), so
   they use a shared-memory rendezvous with a modelled completion cost. *)

let tag_comm = Coll_algo.tag_comm_split

(* ------------------------------------------------------------------ *)
(* Dup *)

let dup comm =
  Runtime.check_alive (Comm.runtime comm) (Comm.world_rank comm);
  Comm.check_collective comm ~op:"comm_dup" ~root:(-1) ~ty:"";
  Runtime.record (Comm.runtime comm) ~op:"comm_dup" ~bytes:0;
  let rt = Comm.runtime comm in
  let context =
    let root_ctx = if Comm.rank comm = 0 then Some [| Runtime.fresh_context rt |] else None in
    (Coll.bcast comm Datatype.int ~root:0 root_ctx).(0)
  in
  let shared = Comm.get_or_create_shared comm ~context ~group:(Comm.group comm) in
  Comm.attach rt shared ~rank:(Comm.rank comm)

(* ------------------------------------------------------------------ *)
(* Split *)

(* Split by (color, key).  A negative color means "undefined": the caller
   gets [None] (MPI_UNDEFINED semantics).  Ranks with equal color form a
   new communicator, ordered by (key, old rank). *)
let split comm ~color ?(key = 0) () : Comm.t option =
  Runtime.check_alive (Comm.runtime comm) (Comm.world_rank comm);
  Comm.check_collective comm ~op:"comm_split" ~root:(-1) ~ty:"";
  Runtime.record (Comm.runtime comm) ~op:"comm_split" ~bytes:0;
  let rt = Comm.runtime comm in
  let n = Comm.size comm in
  let r = Comm.rank comm in
  (* Everyone reports (color, key) to rank 0 of the parent. *)
  if r <> 0 then P2p.send_range comm Datatype.int ~dest:0 ~tag:tag_comm [| color; key |] ~pos:0 ~count:2;
  let reply =
    if r = 0 then begin
      let entries = Array.make n (0, 0) in
      entries.(0) <- (color, key);
      for src = 1 to n - 1 do
        let d = P2p.recv_fresh comm Datatype.int ~source:src ~tag:tag_comm in
        entries.(src) <- (d.(0), d.(1))
      done;
      (* Group members by color. *)
      let colors = Hashtbl.create 8 in
      Array.iteri
        (fun rank (c, k) ->
          if c >= 0 then begin
            let members = try Hashtbl.find colors c with Not_found -> [] in
            Hashtbl.replace colors c ((k, rank) :: members)
          end)
        entries;
      (* For each color: order members, allocate a context, notify. *)
      let my_reply = ref None in
      Hashtbl.iter
        (fun c members ->
          let ordered =
            List.sort
              (fun (k1, r1) (k2, r2) -> if k1 <> k2 then compare k1 k2 else compare r1 r2)
              members
          in
          let ranks = Array.of_list (List.map snd ordered) in
          let world_ranks = Array.map (Comm.world_of_rank comm) ranks in
          let context = Runtime.fresh_context rt in
          ignore c;
          Array.iteri
            (fun new_rank old_rank ->
              let payload =
                Array.concat [ [| context; new_rank; Array.length ranks |]; world_ranks ]
              in
              if old_rank = 0 then my_reply := Some payload
              else
                P2p.send_range comm Datatype.int ~dest:old_rank ~tag:tag_comm payload
                  ~pos:0 ~count:(Array.length payload))
            ranks)
        colors;
      (* Ranks with undefined color get an empty reply. *)
      Array.iteri
        (fun rank (c, _) ->
          if c < 0 && rank <> 0 then
            P2p.send_range comm Datatype.int ~dest:rank ~tag:tag_comm [||] ~pos:0 ~count:0)
        entries;
      if color < 0 then [||] else Option.get !my_reply
    end
    else begin
      let d = P2p.recv_fresh comm Datatype.int ~source:0 ~tag:tag_comm in
      d
    end
  in
  if Array.length reply = 0 then None
  else begin
    let context = reply.(0) in
    let new_rank = reply.(1) in
    let gsize = reply.(2) in
    let world_ranks = Array.sub reply 3 gsize in
    let shared =
      Comm.get_or_create_shared comm ~context ~group:(Group.of_ranks world_ranks)
    in
    Some (Comm.attach rt shared ~rank:new_rank)
  end

(* Restrict a communicator to a subgroup (MPI_Comm_create semantics):
   collective over the parent; members get the new communicator, others
   [None]. *)
let create_from_group comm (g : Group.t) : Comm.t option =
  let my_world = Comm.world_rank comm in
  match Group.rank_of_world g my_world with
  | Some new_rank -> split comm ~color:0 ~key:new_rank ()
  | None -> split comm ~color:(-1) ()

(* ------------------------------------------------------------------ *)
(* Graph topologies (for neighborhood collectives, §V-A) *)

(* Create a communicator with a static neighbor topology.  [sources] and
   [destinations] are comm ranks of the parent (reorder is not supported,
   so ranks are preserved).  Charges the per-member topology-construction
   cost that makes rebuilding the graph before every exchange expensive
   (paper §V-A: "MPI_Neighbor_alltoallv does not scale" with rebuilds). *)
let dist_graph_create_adjacent comm ~(sources : int array) ~(destinations : int array) :
    Comm.t =
  Runtime.check_alive (Comm.runtime comm) (Comm.world_rank comm);
  Comm.check_collective comm ~op:"dist_graph_create_adjacent" ~root:(-1) ~ty:"";
  Runtime.record (Comm.runtime comm) ~op:"dist_graph_create_adjacent" ~bytes:0;
  let rt = Comm.runtime comm in
  let n = Comm.size comm in
  Array.iter (Comm.check_rank comm) sources;
  Array.iter (Comm.check_rank comm) destinations;
  Runtime.advance_clock rt (Comm.world_rank comm)
    (float_of_int n *. rt.Runtime.model.Net_model.topo_setup_per_rank);
  (* Edge symmetry — every destination must list us as a source.  Costs one
     alltoall, hence only under the heavy sanitizer (§III-G). *)
  if Check.heavy rt.Runtime.check then begin
    let send_counts = Array.make n 0 in
    Array.iter (fun d -> send_counts.(d) <- send_counts.(d) + 1) destinations;
    let recv_counts = Coll.alltoall comm Datatype.int send_counts in
    let expected = Array.make n 0 in
    Array.iter (fun s -> expected.(s) <- expected.(s) + 1) sources;
    if recv_counts <> expected then
      Errdefs.usage_error
        "dist_graph_create_adjacent: sources/destinations are not symmetric";
    ()
  end;
  let context =
    let root_ctx = if Comm.rank comm = 0 then Some [| Runtime.fresh_context rt |] else None in
    (Coll.bcast comm Datatype.int ~root:0 root_ctx).(0)
  in
  let shared = Comm.get_or_create_shared comm ~context ~group:(Comm.group comm) in
  Comm.attach rt shared ~rank:(Comm.rank comm)
    ~topology:{ Comm.sources = Array.copy sources; destinations = Array.copy destinations }

(* ------------------------------------------------------------------ *)
(* ULFM: shrink and agree *)

(* Build a new communicator from the surviving processes, ordered by old
   comm rank.  Usable on a revoked communicator (that is its purpose).
   The first rank to arrive takes the new context id; the first through
   the rendezvous decides the survivors.  A member that dies after that
   decision stays in the group: the next operation on the shrunken
   communicator raises and the next recovery round shrinks it out. *)
let shrink comm : Comm.t =
  let rt = Comm.runtime comm in
  Runtime.check_alive rt (Comm.world_rank comm);
  Runtime.record rt ~op:"comm_shrink" ~bytes:0;
  let cell =
    Comm.arrive comm Comm.Shrink ~make:(fun () -> Comm.Context (Runtime.fresh_context rt))
  in
  Comm.await comm cell;
  let survivors = Comm.decide_live comm cell in
  let context =
    match cell.Comm.made with
    | Comm.Context c -> c
    | _ -> invalid_arg "Comm_ops.shrink"
  in
  let world_ranks = List.map (Comm.world_of_rank comm) survivors in
  let group = Group.of_ranks (Array.of_list world_ranks) in
  let new_shared = Comm.get_or_create_shared comm ~context ~group in
  (* Modelled cost of the underlying agreement protocol. *)
  Comm.sync_rounds comm cell ~k:2 ~m:(List.length survivors);
  Comm.leave comm cell ~op:"comm_shrink";
  let rec index i = function
    | [] -> Errdefs.usage_error "shrink: internal error, self not in survivor list"
    | r :: _ when r = Comm.rank comm -> i
    | _ :: rest -> index (i + 1) rest
  in
  Comm.attach rt new_shared ~rank:(index 0 survivors)

(* Fault-tolerant agreement: the logical AND of the votes of the members
   alive when the first rank passes the rendezvous, so every survivor
   returns the same value.  Usable even when some members have failed. *)
let agree comm (value : bool) : bool =
  let rt = Comm.runtime comm in
  Runtime.check_alive rt (Comm.world_rank comm);
  Runtime.record rt ~op:"comm_agree" ~bytes:0;
  let cell = Comm.arrive comm Comm.Agree ~value:(Bool.to_int value) in
  Comm.await comm cell;
  let live = Comm.decide_live comm cell in
  let result = List.for_all (fun r -> cell.Comm.brought.(r) <> 0) live in
  Comm.sync_rounds comm cell ~k:2 ~m:(List.length live);
  Comm.leave comm cell ~op:"comm_agree";
  result
