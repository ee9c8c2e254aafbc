(** Request pools (paper §III-E).

    The unbounded pool collects non-blocking results and completes them
    with {!wait_all}.  A pool created with [~slots:n] keeps at most [n]
    requests in flight: adding to a full pool first waits for the oldest
    — the fixed-slot variant the paper describes as in progress. *)

type t

val create : ?slots:int -> unit -> t

val pending_count : t -> int

(** Add a result to the pool (its payload is discarded).  With bounded
    slots this may block on the oldest pending request. *)
val add : t -> 'a Nb.t -> unit

val wait_all : t -> unit

(** Retire every already-completed request; returns how many. *)
val drain_completed : t -> int
