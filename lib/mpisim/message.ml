(* In-flight messages.

   A message is fully packed at injection time.  [arrival] is the virtual
   time at which the payload is available at the receiver; [matched_time]
   is set when a receive matches it (used by synchronous-send requests,
   which complete only once the receiver has matched — the NBX sparse
   all-to-all relies on this).

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
  sent_at : float;  (* sender's virtual clock at injection (post send-busy) *)
  arrival : float;  (* virtual arrival time at the receiver *)
  seq : int;  (* global injection sequence, for wildcard ordering *)
  sync : bool;  (* synchronous send: sender completes on match *)
  crc : int;  (* reliable-layer CRC-32 of the payload; -1 = not framed *)
  link_seq : int;  (* reliable-layer per-link sequence number; -1 = none *)
  lamport : int;  (* sender's Lamport clock at injection; receivers merge it *)
  mutable matched_time : float;  (* -1.0 until matched *)
  mutable consumed : bool;  (* payload storage handed back to a pool *)
  mutable next : t;  (* next unexpected message of the same key, or [nil] *)
}

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
    sent_at = 0.;
    arrival = 0.;
    seq = -1;
    sync = false;
    crc = -1;
    link_seq = -1;
    lamport = 0;
    matched_time = -1.0;
    consumed = true;
    next = nil;
  }

(* All fields explicit: the runtime's per-message constructor, free of
   optional-argument boxes. *)
let create ~crc ~link_seq ~lamport ~context ~src ~dst ~tag ~payload ~payload_off ~payload_len
    ~count ~signature ~sent_at ~arrival ~seq ~sync =
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
    sent_at;
    arrival;
    seq;
    sync;
    crc;
    link_seq;
    lamport;
    matched_time = -1.0;
    consumed = false;
    next = nil;
  }

let make ?(crc = -1) ?(link_seq = -1) ?(lamport = 0) ~context ~src ~dst ~tag ~payload
    ~payload_off ~payload_len ~count ~signature ~sent_at ~arrival ~seq ~sync () =
  create ~crc ~link_seq ~lamport ~context ~src ~dst ~tag ~payload ~payload_off ~payload_len
    ~count ~signature ~sent_at ~arrival ~seq ~sync

(* The full signature of the payload. *)
let payload_signature t = Signature.repeat t.signature t.count

let is_matched t = t.matched_time >= 0.

let bytes t = t.payload_len

(* A bounded reader over the payload slice.  Must not be used after the
   message's storage has been recycled. *)
let reader t =
  if t.consumed then invalid_arg "Message.reader: payload already recycled";
  Wire.reader_of_slice t.payload ~pos:t.payload_off ~len:t.payload_len

(* An owned copy of the payload (for APIs that return raw bytes). *)
let payload_copy t =
  if t.consumed then invalid_arg "Message.payload_copy: payload already recycled";
  Bytes.sub t.payload t.payload_off t.payload_len

let pp ppf t =
  Format.fprintf ppf "msg{ctx=%d; %d->%d; tag=%d; count=%d; %dB; arr=%a}" t.context
    t.src t.dst t.tag t.count (bytes t) Sim_time.pp t.arrival
