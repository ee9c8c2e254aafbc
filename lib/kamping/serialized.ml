(* Explicit serialization for communication (paper §III-D3, Fig. 5/11).

   Heap-structured values (strings, maps, lists, ...) cannot be described
   by fixed-size datatypes; these operations encode them through a
   {!Serial.Codec.t} into a framed archive and ship the bytes.  Usage is
   explicit — never implicit as in Boost.MPI — because serialization has
   real allocation and CPU costs that zero-overhead bindings must not hide.

   [bcast] is the operation RAxML-NG's abstraction layer needed (§IV-C,
   Fig. 11): one call replaces manual size exchange + buffer management +
   binary (de)serialization. *)

open Mpisim

let c = Communicator.mpi

let send comm (codec : 'a Serial.Codec.t) ~dest ?tag (value : 'a) : unit =
  P2p.send_bytes (c comm) ~dest ?tag (Serial.Archive.encode codec value)

let recv comm (codec : 'a Serial.Codec.t) ?source ?tag () : 'a =
  let payload, _ = P2p.recv_bytes (c comm) ?source ?tag () in
  Serial.Archive.decode codec payload

let recv_with_status comm (codec : 'a Serial.Codec.t) ?source ?tag () : 'a * Status.t =
  let payload, status = P2p.recv_bytes (c comm) ?source ?tag () in
  (Serial.Archive.decode codec payload, status)

let bcast_tag = Coll_algo.tag_bcast_serialized

(* Binomial-tree broadcast of a serialized value; root passes [~value]. *)
let bcast comm (codec : 'a Serial.Codec.t) ~root ?value () : 'a =
  let mpi = c comm in
  Comm.check_collective mpi ~op:"bcast_serialized" ~root ~ty:"";
  Runtime.record (Comm.runtime mpi) ~op:"bcast_serialized" ~bytes:0;
  let n = Communicator.size comm in
  let r = Communicator.rank comm in
  let vrank = (r - root + n) mod n in
  let real v = (v + root) mod n in
  let payload = ref Bytes.empty in
  if r = root then begin
    match value with
    | Some v -> payload := Serial.Archive.encode codec v
    | None -> Errdefs.usage_error "Serialized.bcast: root must provide a value"
  end;
  if n > 1 then begin
    let mask = ref 1 in
    if vrank <> 0 then begin
      while vrank land !mask = 0 do
        mask := !mask lsl 1
      done;
      let b, _ = P2p.recv_bytes mpi ~source:(real (vrank - !mask)) ~tag:bcast_tag () in
      payload := b
    end
    else
      while !mask < n do
        mask := !mask lsl 1
      done;
    mask := !mask lsr 1;
    while !mask > 0 do
      if vrank + !mask < n then
        P2p.send_bytes mpi ~dest:(real (vrank + !mask)) ~tag:bcast_tag !payload;
      mask := !mask lsr 1
    done
  end;
  match value with
  | Some v when r = root -> v (* avoid decoding our own encoding *)
  | Some _ | None -> Serial.Archive.decode codec !payload

(* Gather serialized values at the root (one list entry per rank, in rank
   order); non-roots receive the empty list. *)
let gather comm (codec : 'a Serial.Codec.t) ~root (value : 'a) : 'a list =
  let mpi = c comm in
  Comm.check_collective mpi ~op:"gather_serialized" ~root ~ty:"";
  Runtime.record (Comm.runtime mpi) ~op:"gather_serialized" ~bytes:0;
  let n = Communicator.size comm in
  let r = Communicator.rank comm in
  if r <> root then begin
    P2p.send_bytes mpi ~dest:root ~tag:bcast_tag (Serial.Archive.encode codec value);
    []
  end
  else
    List.init n (fun src ->
        if src = root then value
        else begin
          let b, _ = P2p.recv_bytes mpi ~source:src ~tag:bcast_tag () in
          Serial.Archive.decode codec b
        end)

(* All-to-all of heterogeneous serialized messages: input and output are
   (rank, value) pairs. *)
let sparse_exchange comm (codec : 'a Serial.Codec.t) (outgoing : (int * 'a) list) :
    (int * 'a) list =
  let mpi = c comm in
  let n = Communicator.size comm in
  (* Count how many messages each rank will receive. *)
  let send_counts = Array.make n 0 in
  List.iter (fun (dest, _) -> send_counts.(dest) <- send_counts.(dest) + 1) outgoing;
  let recv_counts = Coll.alltoall mpi Datatype.int send_counts in
  List.iter
    (fun (dest, v) -> P2p.send_bytes mpi ~dest ~tag:bcast_tag (Serial.Archive.encode codec v))
    outgoing;
  let incoming = ref [] in
  Array.iteri
    (fun src cnt ->
      for _ = 1 to cnt do
        let b, _ = P2p.recv_bytes mpi ~source:src ~tag:bcast_tag () in
        incoming := (src, Serial.Archive.decode codec b) :: !incoming
      done)
    recv_counts;
  List.rev !incoming
