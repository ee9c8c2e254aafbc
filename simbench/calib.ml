(* A fixed reference computation, timed beside the workload so that wall
   times can be reported at reference speed.

   The cores this benchmark runs on may be shared: their speed can drift
   by 1.5-2x over seconds to minutes, so raw wall times of the same
   program differ more between runs than most changes to it.  The drift
   hits memory-bound and allocating code (a pure arithmetic loop barely
   sees it), and hits code with different memory footprints differently.
   The benchmark times this kernel next to the work it measures (between
   steps, and around every set-up) and scales each wall time by
   [nominal_ns] over the kernel's time around it: a figure then reads as
   the wall time on a host where the kernel takes [nominal_ns].

   The kernel has two parts, each timed as the fastest of [reps] runs and
   combined by their geometric mean: [mixed], what the simulator spends
   its time on at small sizes (short-lived allocation, effect-handler
   switches, copies within the cache, hash-table lookups), and [stream],
   an element-wise copy of 2 MiB, beyond the core's own caches.  Of the
   candidates tried, this pair tracked all four workloads best; a pure
   arithmetic loop and a memcpy did not track them at all.  The kernel is
   the benchmark's own code, so no change to the simulator moves it.  It
   keeps nothing in the OCaml heap beyond its small fixed tables, so it
   does not move the heap peak. *)

type _ Effect.t += Ping : int -> int Effect.t

let words = 8192

let src = Array.init words (fun i -> i * 7)

let dst = Array.make words 0

let table =
  let t = Hashtbl.create 1024 in
  for i = 0 to 511 do
    Hashtbl.replace t i (i * 3)
  done;
  t

let sink = ref 0

let mixed () =
  let acc = ref 0 in
  (* Short lists, so a minor collection during the kernel promotes next
     to nothing and the kernel leaves the major heap as it found it. *)
  for r = 1 to 40 do
    let l = List.init 50 (fun i -> (i, i * r)) in
    acc := List.fold_left (fun a (x, y) -> a + x + y) !acc l
  done;
  Effect.Deep.match_with
    (fun () ->
      for i = 1 to 200 do
        acc := !acc + Effect.perform (Ping i)
      done)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Ping i -> Some (fun (k : (a, unit) Effect.Deep.continuation) -> Effect.Deep.continue k (i + 1))
          | _ -> None);
    };
  for _ = 1 to 4 do
    Array.blit src 0 dst 0 words
  done;
  for i = 0 to 2047 do
    acc := !acc + Hashtbl.find table (i land 511)
  done;
  sink := !sink + !acc + dst.(!acc land (words - 1))

(* Off the OCaml heap, so they do not count in the heap peak. *)
let stream_words = 262_144

let stream_src = Bigarray.(Array1.init int c_layout stream_words (fun i -> i))

let stream_dst = Bigarray.(Array1.create int c_layout stream_words)

let stream () =
  for i = 0 to stream_words - 1 do
    Bigarray.Array1.unsafe_set stream_dst i (Bigarray.Array1.unsafe_get stream_src i)
  done;
  sink := !sink + stream_dst.{!sink land (stream_words - 1)}

(* The kernel's time at reference speed, in nanoseconds: about its
   fastest on a 2-core shared Xeon VM. *)
let nominal_ns = 170_000.

let reps = 5

let fastest f =
  let best = ref max_int in
  for _ = 1 to reps do
    let t0 = Spans.now_ns () in
    f ();
    best := min !best (Spans.now_ns () - t0)
  done;
  float_of_int !best

(* The kernel's time now, in nanoseconds. *)
let measure () =
  let m = fastest mixed in
  sqrt (m *. fastest stream)

(* How often rank 0 re-times the kernel during timed batches. *)
let interval_ns = 20_000_000

(* A wall time in nanoseconds, at reference speed, given the kernel's
   time around it. *)
let scale ns ~kernel_ns = float_of_int ns *. nominal_ns /. kernel_ns
