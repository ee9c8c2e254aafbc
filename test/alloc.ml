(* Allocation readings for the suites' allocation pins, one way for all.

   [measure f] runs a minor collection, then [f], and returns [f]'s
   result with the words it allocated: [minor] on the minor heap, and
   [direct_major] straight in the major heap (a block of more than 256
   words), which is the major words less the promoted ones.
   [Gc.counters] leaves out the young words not yet collected, so its
   minor count is read from [Gc.minor_words] instead, last before [f]
   and first after it: that read does not allocate, so neither the
   other reading nor the result enters [minor]. *)

type words = { minor : float; direct_major : float }

let measure f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let direct_major = major1 -. major0 -. (promoted1 -. promoted0) in
  (r, { minor = minor1 -. minor0; direct_major })

(* Minor words [f] allocates. *)
let minor_words f = (snd (measure f)).minor

(* A reading's words on either heap, in bytes, as [Gc.allocated_bytes]
   counts them. *)
let bytes w = float_of_int (Sys.word_size / 8) *. (w.minor +. w.direct_major)
