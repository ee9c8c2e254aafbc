(* Deterministic random number generation for the simulator and the graph
   generators.

   Two layers:
   - {!splitmix64}: a stateless mixer used to derive independent streams
     from (seed, stream-id) pairs, which is what makes distributed graph
     generation communication-free and reproducible (Funke et al. [38]);
   - a xoshiro256** generator seeded through splitmix64 for bulk drawing. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let rotl (x : int64) (k : int) : int64 =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let splitmix64_next (state : int64 ref) : int64 =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Stateless mix of up to three words: used to key per-object streams. *)
let mix64 (a : int64) (b : int64) : int64 =
  let st = ref (Int64.logxor a (Int64.mul b 0x9E3779B97F4A7C15L)) in
  let z1 = splitmix64_next st in
  let z2 = splitmix64_next st in
  Int64.logxor z1 (rotl z2 17)

let create ~seed ~stream =
  let st = ref (mix64 (Int64.of_int seed) (Int64.of_int stream)) in
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  (* All-zero state would be a fixed point; splitmix64 cannot produce four
     zero outputs from any input, but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    { s0 = 1L; s1; s2; s3 }
  else { s0; s1; s2; s3 }

let next_int64 t : int64 =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

(* Uniform int in [0, bound), bound > 0, via unbiased rejection on 63 bits. *)
let next_int t ~bound =
  if bound <= 0 then invalid_arg "Xoshiro.next_int: bound must be positive";
  let mask = 0x7FFF_FFFF_FFFF_FFFFL in
  let b = Int64.of_int bound in
  let rec draw () =
    let r = Int64.logand (next_int64 t) mask in
    (* Reject the tail to avoid modulo bias. *)
    let limit = Int64.sub mask (Int64.rem mask b) in
    if Int64.unsigned_compare r limit <= 0 then Int64.to_int (Int64.rem r b)
    else draw ()
  in
  draw ()

(* Uniform float in [0, 1). *)
let next_float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

(* Hash-based draws for counter-based ("stateless") generation. *)
let hash_float ~seed ~stream ~counter =
  let h = mix64 (mix64 (Int64.of_int seed) (Int64.of_int stream)) (Int64.of_int counter) in
  let bits = Int64.shift_right_logical h 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let hash_int ~seed ~stream ~counter ~bound =
  if bound <= 0 then invalid_arg "Xoshiro.hash_int: bound must be positive";
  let h = mix64 (mix64 (Int64.of_int seed) (Int64.of_int stream)) (Int64.of_int counter) in
  let r = Int64.logand h 0x7FFF_FFFF_FFFF_FFFFL in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = next_int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
