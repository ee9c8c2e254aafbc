(* The named-parameter front-end — the paper's signature interface
   (Fig. 1): every argument of a call is a parameter *object* built by a
   factory function, passed in any order; whatever is omitted is computed
   by the library, and out-parameters opt additional computed values into
   the result object.

     let result =
       Named.allgatherv comm Datatype.int
         [ send_buf v; recv_counts_out (); recv_displs_out () ]
     in
     let v_global = Named.extract_recv_buf result in
     let counts = Named.extract_recv_counts result in

   C++ KaMPIng rejects a parameter that an operation does not accept at
   compile time; so does this module.  A parameter's type carries a
   phantom kind, one polymorphic-variant tag per factory, and each
   operation's signature (named.mli) bounds the tags its list may carry,
   so [allgatherv comm dt [ send_buf v; op o ]] fails to type-check with
   "does not allow tag(s) `op".  What a list type cannot say — a
   required parameter that is missing, a parameter passed twice, both
   in-place and out-of-place buffers — is checked at call entry, in the
   one pass that resolves the list into the operation's arguments, with
   messages naming the operation and the parameter (§III-G). *)

open Mpisim

(* A parameter object for an operation over element type ['a]; ['k] is
   the phantom kind, fixed by the factory's signature in named.mli. *)
type ('a, 'k) param =
  | Send_buf of 'a array
  | Send_recv_buf of 'a array  (* the in-place spelling (§III-G) *)
  | Send_counts of int array
  | Send_count of int
  | Recv_counts of int array
  | Recv_counts_out
  | Recv_displs of int array
  | Recv_displs_out
  | Send_displs of int array
  | Recv_buf of Resize_policy.t * 'a Vec.t
  | Root of int
  | Op of 'a Reduce_op.t

(* Factory functions — the caller-side vocabulary of Fig. 1. *)
let send_buf v = Send_buf v

let send_recv_buf v = Send_recv_buf v

let send_counts c = Send_counts c

let send_count c = Send_count c

let recv_counts c = Recv_counts c

let recv_counts_out () = Recv_counts_out

let recv_displs d = Recv_displs d

let recv_displs_out () = Recv_displs_out

let send_displs d = Send_displs d

let recv_buf ?(policy = Resize_policy.default) v = Recv_buf (policy, v)

let root r = Root r

let op o = Op o

(* ------------------------------------------------------------------ *)
(* One resolution pass: a parameter list becomes the operation's
   arguments.  Only a duplicate can fail here; a missing required
   parameter fails where the operation asks for it. *)

type 'a args = {
  mutable a_send_buf : 'a array option;
  mutable a_send_recv_buf : 'a array option;
  mutable a_send_counts : int array option;
  mutable a_send_count : int option;
  mutable a_recv_counts : int array option;
  mutable a_recv_counts_out : bool;
  mutable a_recv_displs : int array option;
  mutable a_recv_displs_out : bool;
  mutable a_send_displs : int array option;
  mutable a_recv_buf : (Resize_policy.t * 'a Vec.t) option;
  mutable a_root : int option;
  mutable a_op : 'a Reduce_op.t option;
}

let once opname name passed =
  if passed then
    Errdefs.usage_error "%s: parameter %s was passed more than once" opname name

let put opname name slot v =
  once opname name (Option.is_some slot);
  Some v

let rec fill opname a = function
  | [] -> a
  | p :: rest ->
      (match p with
      | Send_buf v -> a.a_send_buf <- put opname "send_buf" a.a_send_buf v
      | Send_recv_buf v ->
          a.a_send_recv_buf <- put opname "send_recv_buf" a.a_send_recv_buf v
      | Send_counts c -> a.a_send_counts <- put opname "send_counts" a.a_send_counts c
      | Send_count c -> a.a_send_count <- put opname "send_count" a.a_send_count c
      | Recv_counts c -> a.a_recv_counts <- put opname "recv_counts" a.a_recv_counts c
      | Recv_counts_out ->
          once opname "recv_counts_out" a.a_recv_counts_out;
          a.a_recv_counts_out <- true
      | Recv_displs d -> a.a_recv_displs <- put opname "recv_displs" a.a_recv_displs d
      | Recv_displs_out ->
          once opname "recv_displs_out" a.a_recv_displs_out;
          a.a_recv_displs_out <- true
      | Send_displs d -> a.a_send_displs <- put opname "send_displs" a.a_send_displs d
      | Recv_buf (policy, v) ->
          a.a_recv_buf <- put opname "recv_buf" a.a_recv_buf (policy, v)
      | Root r -> a.a_root <- put opname "root" a.a_root r
      | Op o -> a.a_op <- put opname "op" a.a_op o);
      fill opname a rest

let resolve opname params =
  fill opname
    {
      a_send_buf = None;
      a_send_recv_buf = None;
      a_send_counts = None;
      a_send_count = None;
      a_recv_counts = None;
      a_recv_counts_out = false;
      a_recv_displs = None;
      a_recv_displs_out = false;
      a_send_displs = None;
      a_recv_buf = None;
      a_root = None;
      a_op = None;
    }
    params

let required opname name = function
  | Some v -> v
  | None -> Errdefs.usage_error "%s: required parameter %s is missing" opname name

(* ------------------------------------------------------------------ *)
(* The result object (§III-B): the receive buffer is always present;
   other values only when the matching _out parameter was passed. *)

type 'a result = {
  op_name : string;
  r_recv_buf : 'a array;
  r_recv_counts : int array option;
  r_recv_displs : int array option;
}

let extract_recv_buf r = r.r_recv_buf

let extract_recv_counts r =
  match r.r_recv_counts with
  | Some c -> c
  | None ->
      Errdefs.usage_error
        "%s result: recv_counts were not requested (pass recv_counts_out ())" r.op_name

let extract_recv_displs r =
  match r.r_recv_displs with
  | Some d -> d
  | None ->
      Errdefs.usage_error
        "%s result: recv_displs were not requested (pass recv_displs_out ())" r.op_name

(* Structured-binding style decomposition: (buf, counts, displs) with
   out-parameters as options. *)
let decompose r = (r.r_recv_buf, r.r_recv_counts, r.r_recv_displs)

(* The result of a call that computed [buf], after writing it into the
   caller's [recv_buf] if one was passed. *)
let result opname a buf ~counts ~displs =
  (match a.a_recv_buf with Some (policy, v) -> Vec.write_array policy v buf | None -> ());
  { op_name = opname; r_recv_buf = buf; r_recv_counts = counts; r_recv_displs = displs }

let vector_result opname a (r : 'a Infer.vector_result) =
  result opname a r.recv_buf
    ~counts:(if a.a_recv_counts_out then Some r.recv_counts else None)
    ~displs:(if a.a_recv_displs_out then Some r.recv_displs else None)

(* ------------------------------------------------------------------ *)
(* Operations *)

(* allgatherv: paper Fig. 1's running example. *)
let allgatherv comm dt params =
  let opname = "allgatherv" in
  let a = resolve opname params in
  let v = required opname "send_buf" a.a_send_buf in
  vector_result opname a
    (Infer.allgatherv comm dt ?send_count:a.a_send_count ?recv_counts:a.a_recv_counts
       ?recv_displs:a.a_recv_displs v)

let alltoallv comm dt params =
  let opname = "alltoallv" in
  let a = resolve opname params in
  let v = required opname "send_buf" a.a_send_buf in
  let send_counts = required opname "send_counts" a.a_send_counts in
  vector_result opname a
    (Infer.alltoallv comm dt ~send_counts ?send_displs:a.a_send_displs
       ?recv_counts:a.a_recv_counts ?recv_displs:a.a_recv_displs v)

(* allgather: supports the in-place send_recv_buf spelling of §III-G. *)
let allgather comm dt params =
  let opname = "allgather" in
  let a = resolve opname params in
  let buf =
    match (a.a_send_buf, a.a_send_recv_buf) with
    | Some _, Some _ ->
        Errdefs.usage_error "%s: pass either send_buf or send_recv_buf, not both" opname
    | Some v, None -> Collectives.allgather comm dt v
    | None, Some v -> Collectives.allgather_inplace comm dt v
    | None, None ->
        Errdefs.usage_error "%s: required parameter send_buf (or send_recv_buf) is missing"
          opname
  in
  result opname a buf ~counts:None ~displs:None

let gatherv comm dt params =
  let opname = "gatherv" in
  let a = resolve opname params in
  let v = required opname "send_buf" a.a_send_buf in
  let root = required opname "root" a.a_root in
  vector_result opname a (Infer.gatherv comm dt ~root ?recv_counts:a.a_recv_counts v)

let bcast comm dt params =
  let opname = "bcast" in
  let a = resolve opname params in
  let root = required opname "root" a.a_root in
  if Communicator.rank comm = root && Option.is_none a.a_send_buf then
    Errdefs.usage_error "%s: the root must pass send_buf" opname;
  result opname a
    (Collectives.bcast comm dt ~root ?data:a.a_send_buf ())
    ~counts:None ~displs:None

let allreduce comm dt params =
  let opname = "allreduce" in
  let a = resolve opname params in
  let v = required opname "send_buf" a.a_send_buf in
  let o = required opname "op" a.a_op in
  result opname a (Collectives.allreduce comm dt o v) ~counts:None ~displs:None
