(* Explicit serialization for communication (paper §III-D3, Fig. 5/11).

   Heap-structured values (strings, maps, lists, ...) cannot be described
   by fixed-size datatypes; these operations encode them through a
   {!Serial.Codec.t} into a framed archive and ship it as one element of
   [Mpisim.Datatype.bytes] through the ordinary typed calls — the
   analogue of KaMPIng's [as_serialized] buffer adapter.  Usage is
   explicit — never implicit as in Boost.MPI — because serialization has
   real allocation and CPU costs that zero-overhead bindings must not
   hide.

   [bcast] is the operation RAxML-NG's abstraction layer needed (§IV-C,
   Fig. 11): one call replaces manual size exchange + buffer management +
   binary (de)serialization. *)

(* [P2p] and [Collectives] below are this library's binding-layer
   modules (no [open Mpisim]): serialized traffic takes the same calls,
   spans and checks as any typed message. *)
let bytes = Mpisim.Datatype.bytes

let encode = Serial.Archive.encode

let decode = Serial.Archive.decode

let send comm (codec : 'a Serial.Codec.t) ~dest ?tag (value : 'a) : unit =
  P2p.send_single comm bytes ~dest ?tag (encode codec value)

let recv_with_status comm (codec : 'a Serial.Codec.t) ?source ?tag () :
    'a * Mpisim.Status.t =
  match P2p.recv_with_status comm bytes ?source ?tag () with
  | [| payload |], status -> (decode codec payload, status)
  | payload, _ ->
      Mpisim.Errdefs.usage_error "Serialized.recv: expected 1 archive, got %d"
        (Array.length payload)

let recv comm codec ?source ?tag () = fst (recv_with_status comm codec ?source ?tag ())

(* The root passes [~value]; it returns that value without decoding its
   own encoding. *)
let bcast comm (codec : 'a Serial.Codec.t) ~root ?value () : 'a =
  let data =
    if Communicator.rank comm <> root then None
    else
      match value with
      | Some v -> Some [| encode codec v |]
      | None -> Mpisim.Errdefs.usage_error "Serialized.bcast: root must provide a value"
  in
  let payload = Collectives.bcast comm bytes ~root ?data () in
  match value with
  | Some v when Communicator.rank comm = root -> v
  | Some _ | None -> decode codec payload.(0)

(* One list entry per rank, in rank order, at the root; non-roots receive
   the empty list. *)
let gather comm (codec : 'a Serial.Codec.t) ~root (value : 'a) : 'a list =
  let all = Collectives.gather comm bytes ~root [| encode codec value |] in
  List.init (Array.length all) (fun src ->
      if src = root then value else decode codec all.(src))

(* An alltoallv of archives: grouped by destination in send order, and
   received grouped by source in the same order. *)
let sparse_exchange comm (codec : 'a Serial.Codec.t) (outgoing : (int * 'a) list) :
    (int * 'a) list =
  let n = Communicator.size comm in
  let send_counts = Array.make n 0 in
  List.iter (fun (dest, _) -> send_counts.(dest) <- send_counts.(dest) + 1) outgoing;
  let send_displs = Collectives.exclusive_prefix_sum send_counts in
  let send_buf = Array.make (List.length outgoing) Bytes.empty in
  let fill = Array.copy send_displs in
  List.iter
    (fun (dest, v) ->
      send_buf.(fill.(dest)) <- encode codec v;
      fill.(dest) <- fill.(dest) + 1)
    outgoing;
  let recv_counts = Collectives.alltoall comm Mpisim.Datatype.int send_counts in
  let received =
    Collectives.alltoallv comm bytes ~send_counts ~send_displs ~recv_counts send_buf
  in
  let sources = Array.concat (List.init n (fun src -> Array.make recv_counts.(src) src)) in
  List.init (Array.length received) (fun i -> (sources.(i), decode codec received.(i)))
