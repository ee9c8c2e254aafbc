(* QCheck arbitraries shared by the test suites. *)

(* A rank count in [lo, hi].  QCheck's integer shrinker steps toward 0,
   below the range, so a property over [QCheck.int_range 1 n] ranks that
   fails would shrink to 0 ranks and report [Runtime.create]'s "size must
   be positive" instead of its own counterexample.  These shrinks stay in
   the range. *)
let ranks lo hi =
  QCheck.add_shrink_invariant (fun p -> lo <= p && p <= hi) (QCheck.int_range lo hi)
