(* The lower layers of the ledger, each timed alone at the shape the
   workload produced: pack/unpack through a datatype into a pooled wire
   writer, wire acquire/recycle, mailbox post/deliver at the observed
   unexpected-queue depth, a fiber switch, and the network model's
   per-message charges.  Every figure is the median of several rounds. *)

open Mpisim

let rounds = 7

let round_s = 0.004

(* Median nanoseconds per call of [f], each round sized to ~[round_s]. *)
let ns_per_call f =
  let t0 = Spans.now_ns () in
  f ();
  let once = max 1 (Spans.now_ns () - t0) in
  let iters = max 1 (int_of_float (round_s *. 1e9 /. float_of_int once)) in
  let per_round =
    Array.init rounds (fun _ ->
        let t0 = Spans.now_ns () in
        for _ = 1 to iters do
          f ()
        done;
        float_of_int (Spans.now_ns () - t0) /. float_of_int iters)
  in
  Array.sort compare per_round;
  per_round.(rounds / 2)

type datatype_costs = {
  wire_ns : float;  (** acquire + recycle of a pooled writer *)
  pack_ns : float;  (** acquire + pack_array + recycle, minus [wire_ns] *)
  unpack_ns : float;  (** unpack_into from a packed buffer *)
  bytes : int;
}

let datatype_costs (type a) (dt : a Datatype.t) (sample : a array) =
  let count = Array.length sample in
  let bytes = Datatype.size_of_count dt count in
  let pool = Wire.create_pool () in
  let wire () =
    let w = Wire.acquire pool ~capacity:(max 8 bytes) in
    let b, _ = Wire.unsafe_contents w in
    Wire.recycle pool b
  in
  let pack () =
    let w = Wire.acquire pool ~capacity:(max 8 bytes) in
    Datatype.pack_array dt w sample ~pos:0 ~count;
    let b, _ = Wire.unsafe_contents w in
    Wire.recycle pool b
  in
  let packed = Wire.create_writer ~capacity:(max 8 bytes) () in
  Datatype.pack_array dt packed sample ~pos:0 ~count;
  let buf, len = Wire.unsafe_contents packed in
  let dst = Array.make count (Datatype.zero_elem dt) in
  let unpack () =
    Datatype.unpack_into dt (Wire.reader_of_bytes ~pos:0 ~len buf) dst ~pos:0 ~count
  in
  let wire_ns = ns_per_call wire in
  let pack_ns = Float.max 0. (ns_per_call pack -. wire_ns) in
  { wire_ns; pack_ns; unpack_ns = ns_per_call unpack; bytes }

(* A polymorphic continuation over the workload's element type. *)
type 'r with_dt = { k : 'a. 'a Datatype.t * 'a array -> 'r }

let with_payload payload ~bytes (c : 'r with_dt) =
  match payload with
  | `Byte ->
      let n = max 1 bytes in
      c.k (Datatype.byte, Array.init n (fun i -> Char.unsafe_chr (i * 37 land 255)))
  | `Int ->
      let n = max 1 (bytes / 8) in
      c.k (Datatype.int, Array.init n (fun i -> i * 7919))

let costs payload ~bytes = with_payload payload ~bytes { k = (fun (dt, a) -> datatype_costs dt a) }

(* General per-element path over bulk kernel, pack + unpack, at [bytes]. *)
let bulk_speedup payload ~bytes =
  with_payload payload ~bytes
    {
      k =
        (fun (dt, a) ->
          let bulk = datatype_costs dt a in
          let general = datatype_costs (Datatype.without_bulk dt) a in
          (general.pack_ns +. general.unpack_ns) /. Float.max 1. (bulk.pack_ns +. bulk.unpack_ns));
    }

(* One message through a mailbox holding [depth] unexpected messages on
   other tags: with probability [unexpected_share] it arrives before its
   receive is posted (deliver, then post matches it from the queue),
   otherwise after (post, then deliver matches the posted receive).  The
   receive pattern follows the workload's. *)
let match_ns ~depth ~unexpected_share ~wildcard =
  let mb = Mailbox.create () in
  let signature = Datatype.signature_of_count Datatype.int 1 in
  let msg tag =
    Message.make ~context:0 ~src:1 ~dst:0 ~tag ~payload:(Bytes.create 8) ~payload_off:0
      ~payload_len:8 ~count:1 ~signature ~sent_at:0. ~arrival:0. ~seq:0 ~sync:false ()
  in
  for i = 1 to depth do
    ignore (Mailbox.deliver mb (msg (1000 + i)))
  done;
  let m = msg 7 in
  let src, tag =
    match wildcard with
    | `None -> (1, 7)
    | `Tag -> (1, Mailbox.any_tag)
    | `Source -> (Mailbox.any_source, 7)
  in
  let late () =
    ignore (Mailbox.deliver mb m);
    let p = Mailbox.post mb ~context:0 ~src ~tag ~now:0. in
    Mailbox.retire mb p
  in
  let early () =
    let p = Mailbox.post mb ~context:0 ~src ~tag ~now:0. in
    ignore (Mailbox.deliver mb m);
    Mailbox.retire mb p
  in
  (unexpected_share *. ns_per_call late) +. ((1. -. unexpected_share) *. ns_per_call early)

(* The network model's charges for one message of [bytes]. *)
let charge_ns ~bytes =
  let m = Net_model.omnipath in
  let acc = ref 0. in
  let f () =
    acc :=
      !acc
      +. Net_model.send_busy_time m ~bytes
      +. Net_model.transit_time m
      +. Net_model.recv_busy_time m ~bytes
  in
  let ns = ns_per_call f in
  ignore (Sys.opaque_identity !acc);
  ns

(* One fiber switch: two ranks yielding to each other. *)
let switch_ns () =
  let yields = 20_000 in
  let per_round =
    Array.init rounds (fun _ ->
        let ns = ref 0 in
        ignore
          (Engine.run ~model:Net_model.zero_cost ~clock_mode:Runtime.Virtual_only
             ~check_level:Check.Off ~domains:1 ~ranks:2 (fun mpi ->
               let t0 = Spans.now_ns () in
               for _ = 1 to yields do
                 Scheduler.yield ()
               done;
               if Comm.rank mpi = 0 then ns := Spans.now_ns () - t0));
        float_of_int !ns /. float_of_int (2 * yields))
  in
  Array.sort compare per_round;
  per_round.(rounds / 2)
