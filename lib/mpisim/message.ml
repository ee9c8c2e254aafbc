(* In-flight messages.

   A message is fully packed at injection time.  [arrival_stamp] is the
   virtual time at which the payload is available at the receiver;
   [matched_stamp] is set when a receive matches it (used by
   synchronous-send requests, which complete only once the receiver has
   matched — the NBX sparse all-to-all relies on this).

   Virtual times in a message (and in a posted receive) are stamps: the
   IEEE bits of the float in an immediate int.  A virtual time is never
   negative, so bit 63 of its pattern is 0 and the other 63 fit; [time]
   gives the float back bit for bit.  Non-negative floats order like
   their patterns, and flipping the pattern's top bit ([lxor min_int])
   makes the int compare the same way, so stamps compare and take their
   maximum as the times would.  A float field of a record that also
   holds other values is boxed, two words per write; a stamp costs
   nothing.  [stamp] and [time] are [@inline], and the default build
   inlines across modules (see the root dune-workspace), so a caller in
   any module converts without boxing the float; under [--profile dev]
   ([-opaque]) each call from another module boxes it.  [not_matched],
   the largest stamp, is the pattern of a NaN, which no virtual time
   is.

   The payload is a (storage, offset, length) slice: the storage usually
   comes from the sender's pooled wire buffer (handed over without a copy
   at injection) and may be larger than the payload itself.  Whoever
   unpacks the message calls [Runtime.recycle_payload], which marks the
   slice consumed and returns the storage to a pool; [consumed] guards
   against double recycling and against reading a recycled slice.

   [next] links a message waiting unexpected in a mailbox to the next one
   with the same (context, src, tag) key, so a per-key FIFO costs no
   cell; [nil] ends every chain. *)

type t = {
  context : int;  (* communicator context id *)
  src : int;  (* world rank of sender *)
  dst : int;  (* world rank of receiver *)
  tag : int;
  payload : Bytes.t;  (* storage; capacity may exceed the payload *)
  payload_off : int;
  payload_len : int;
  count : int;  (* element count *)
  signature : Signature.t;
      (* signature of one element; the payload's is this repeated [count]
         times ({!payload_signature}), which is never built unless a check
         fails *)
  sent_stamp : int;  (* sender's virtual clock at injection (post send-busy) *)
  arrival_stamp : int;  (* virtual arrival time at the receiver *)
  seq : int;  (* global injection sequence, for wildcard ordering *)
  sync : bool;  (* synchronous send: sender completes on match *)
  crc : int;  (* reliable-layer CRC-32 of the payload; -1 = not framed *)
  lamport : int;  (* sender's Lamport clock at injection; receivers merge it *)
  mutable matched_stamp : int;  (* [not_matched] until matched *)
  mutable consumed : bool;  (* payload storage handed back to a pool *)
  mutable next : t;  (* next unexpected message of the same key, or [nil] *)
}

let[@inline] stamp (x : float) = Int64.to_int (Int64.bits_of_float x) lxor min_int

let[@inline] time (s : int) =
  Int64.float_of_bits (Int64.logand (Int64.of_int (s lxor min_int)) Int64.max_int)

let not_matched = max_int

(* The end of a chain, and the "no message" of a posted receive; never
   delivered. *)
let rec nil =
  {
    context = -1;
    src = -1;
    dst = -1;
    tag = -1;
    payload = Bytes.empty;
    payload_off = 0;
    payload_len = 0;
    count = 0;
    signature = Signature.empty;
    sent_stamp = 0;
    arrival_stamp = 0;
    seq = -1;
    sync = false;
    crc = -1;
    lamport = 0;
    matched_stamp = not_matched;
    consumed = true;
    next = nil;
  }

(* All fields explicit, times as stamps: the runtime's per-message
   constructor, free of optional-argument and float boxes. *)
let create ~crc ~lamport ~context ~src ~dst ~tag ~payload ~payload_off ~payload_len ~count
    ~signature ~sent_stamp ~arrival_stamp ~seq ~sync =
  if payload_off < 0 || payload_len < 0 || payload_off + payload_len > Bytes.length payload
  then invalid_arg "Message.make: payload slice out of bounds";
  {
    context;
    src;
    dst;
    tag;
    payload;
    payload_off;
    payload_len;
    count;
    signature;
    sent_stamp;
    arrival_stamp;
    seq;
    sync;
    crc;
    lamport;
    matched_stamp = not_matched;
    consumed = false;
    next = nil;
  }

let make ?(crc = -1) ?(lamport = 0) ~context ~src ~dst ~tag ~payload ~payload_off
    ~payload_len ~count ~signature ~sent_at ~arrival ~seq ~sync () =
  if not (sent_at >= 0. && arrival >= 0.) then
    invalid_arg "Message.make: times must be non-negative";
  create ~crc ~lamport ~context ~src ~dst ~tag ~payload ~payload_off ~payload_len ~count
    ~signature ~sent_stamp:(stamp sent_at) ~arrival_stamp:(stamp arrival) ~seq ~sync

(* The full signature of the payload. *)
let payload_signature t = Signature.repeat t.signature t.count

let is_matched t = t.matched_stamp <> not_matched

let bytes t = t.payload_len

(* Raise unless the payload storage is still the message's. *)
let check_live t ~op = if t.consumed then invalid_arg (op ^ ": payload already recycled")

let pp ppf t =
  Format.fprintf ppf "msg{ctx=%d; %d->%d; tag=%d; count=%d; %dB; arr=%a}" t.context
    t.src t.dst t.tag t.count (bytes t) Sim_time.pp (time t.arrival_stamp)
