(** Deterministic random numbers: xoshiro256** streams seeded through
    splitmix64, plus stateless counter-based draws.

    Counter-based draws ([hash_int]/[hash_float]) make distributed graph
    generation communication-free and reproducible: any rank can compute
    any vertex's randomness from (seed, stream, counter) alone. *)

type t

(** [create ~seed ~stream] is an independent generator: different
    [stream]s with the same [seed] are decorrelated. *)
val create : seed:int -> stream:int -> t

(** Uniform int in [0, bound), rejection-sampled (no modulo bias).
    Raises [Invalid_argument] if [bound <= 0]. *)
val next_int : t -> bound:int -> int

(** Uniform float in [0, 1). *)
val next_float : t -> float

(** Stateless draws: pure functions of (seed, stream, counter). *)
val hash_float : seed:int -> stream:int -> counter:int -> float

val hash_int : seed:int -> stream:int -> counter:int -> bound:int -> int

(** In-place Fisher-Yates shuffle. *)
val shuffle : t -> 'a array -> unit
