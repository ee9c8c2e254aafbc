(** Post-run analysis of the virtual-time accounting and the event trace:
    per-rank busy/blocked/idle utilization and the makespan-bounding
    critical path. *)

(** Per-rank busy / blocked / idle table.  Needs no trace: the runtime
    splits every clock movement into busy (charged cost) and blocked
    (sync jump); idle is the tail between a rank's finish time and the
    makespan. *)
val pp_utilization :
  Format.formatter ->
  busy:float array ->
  blocked:float array ->
  times:float array ->
  max_time:float ->
  unit

(** One segment of the critical path: rank [hop_rank] was occupied on
    [hop_from .. hop_to] inside [hop_name] ("cat/name" of the tightest
    enclosing traced span, or ["compute"]); the segment started when the
    message [via_seq] from [via_src] arrived ([via_src = -1] for the
    chain's first segment).  [via_latency] is match-ts minus send-ts,
    [via_slack] how long the receiver had been parked when the message
    arrived (each [-1.] when unknown), and [via_verified] says the edge
    was checked against the send table: source rank, byte count,
    timestamp order and Lamport order all consistent. *)
type hop = {
  hop_rank : int;
  hop_from : float;
  hop_to : float;
  hop_name : string;
  via_src : int;
  via_seq : int;
  via_bytes : int;
  via_latency : float;
  via_slack : float;
  via_verified : bool;
}

(** The cross-rank causal walk: back from the rank that finished last
    through binding "match_wait" instants to the sends that released
    them (the longest path through the send→recv DAG; at most 64 hops).
    The walk only crosses verified edges — an evicted or inconsistent
    send ends it.  A fold over {!Trace.fold}, so either sink gives the
    same path.  Returns hops in start-to-finish order; [[]] when nothing
    was recorded or the stream file cannot be read. *)
val critical_path : Trace.t -> times:float array -> hop list

(** Number of cross-rank edges in a critical path that failed send-table
    verification ([via_verified = false]).  Published by the CLI as the
    [obs.causal.unverified_edges] counter. *)
val unverified_edges : hop list -> int

val pp_critical_path : Format.formatter -> Trace.t -> times:float array -> unit
