(* Metrics registry: counters, gauges and log2-bucketed histograms.

   This generalizes the original flat call/byte profiling table
   ([Profiling] is now a facade over a [Stats.t]): the runtime feeds it
   message-size, message-latency, mailbox-depth and fiber-park-duration
   distributions, and exporters turn it into text or JSON.

   Hot-path discipline: [incr]/[add]/[set]/[observe] never allocate.
   Counters are single-mutable-int records and gauges single-mutable-float
   ones; a histogram's bucket is read off the value's IEEE exponent, and
   the float moments live in a float array rather than record fields so
   the updates stay box-free.  A registry belongs to one run, and a run
   executes on one domain, so nothing here locks. *)

type counter = { mutable n : int }

type gauge = { mutable value : float }

(* Bucket i counts values v with bounds.(i-1) < v <= bounds.(i); bucket 0
   counts v <= bounds.(0) (in particular all v <= 0) and the last bucket
   counts overflow beyond the largest bound. *)

let min_exp = -40

let max_exp = 40

let bounds =
  Array.init (max_exp - min_exp + 1) (fun i -> 2. ** float_of_int (min_exp + i))

let n_buckets = Array.length bounds + 1

(* moments layout: [| sum; min; max |] *)
type histogram = {
  counts : int array;
  moments : float array;
  mutable total : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  (* registered names, newest first; iteration sorts them by name *)
  mutable counter_order : string list;
  mutable gauge_order : string list;
  mutable histogram_order : string list;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    counter_order = [];
    gauge_order = [];
    histogram_order = [];
  }

(* A hit is a [Hashtbl.find]: no option is boxed for the handle. *)
let counter t name =
  match Hashtbl.find t.counters name with
  | c -> c
  | exception Not_found ->
      let c = { n = 0 } in
      Hashtbl.replace t.counters name c;
      t.counter_order <- name :: t.counter_order;
      c

let unregistered_counter () = { n = 0 }

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { value = 0. } in
      Hashtbl.replace t.gauges name g;
      t.gauge_order <- name :: t.gauge_order;
      g

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        { counts = Array.make n_buckets 0; moments = [| 0.; infinity; neg_infinity |]; total = 0 }
      in
      Hashtbl.replace t.histograms name h;
      t.histogram_order <- name :: t.histogram_order;
      h

let incr c = c.n <- c.n + 1

let add c n = c.n <- c.n + n

let count c = c.n

let set g v = g.value <- v

let value g = g.value

(* Index of the smallest bound >= v, or [n_buckets - 1] for overflow;
   [nan] compares false with every bound and lands in the last finite
   bucket.  A v strictly inside the bounds is a normal float
   1.m * 2^(e - 1023); its smallest power-of-two bound is 2^(e - 1023)
   when the mantissa m is 0 and the next power up otherwise.  The bits
   of a positive float fit an immediate int (bit 63 is its sign).

   [bucket_of] and the observe functions are [@inline]: the default
   build inlines across modules (see the root dune-workspace), so a
   caller's float reaches [observe] unboxed.  Under [--profile dev]
   every module is opaque, and each observation from another module
   allocates its boxed float. *)
let[@inline] bucket_of v =
  if v <= bounds.(0) then 0
  else if v > bounds.(Array.length bounds - 1) then n_buckets - 1
  else if Float.is_nan v then n_buckets - 2
  else begin
    let b = Int64.to_int (Int64.bits_of_float v) in
    (b lsr 52) - 1023 - min_exp + if b land 0xF_FFFF_FFFF_FFFF = 0 then 0 else 1
  end

let[@inline] observe h v =
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.total <- h.total + 1;
  h.moments.(0) <- h.moments.(0) +. v;
  if v < h.moments.(1) then h.moments.(1) <- v;
  if v > h.moments.(2) then h.moments.(2) <- v

let[@inline] observe_int h n = observe h (float_of_int n)

let total h = h.total

let sum h = h.moments.(0)

let min_value h = h.moments.(1)

let max_value h = h.moments.(2)

let mean h = if h.total = 0 then 0. else h.moments.(0) /. float_of_int h.total

(* Non-empty buckets as (lower-exclusive, upper-inclusive, count); the
   first bucket's lower bound is [neg_infinity], the last one's upper
   bound is [infinity]. *)
let buckets h : (float * float * int) list =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.counts.(i) > 0 then begin
      let lo = if i = 0 then neg_infinity else bounds.(i - 1) in
      let hi = if i = n_buckets - 1 then infinity else bounds.(i) in
      acc := (lo, hi, h.counts.(i)) :: !acc
    end
  done;
  !acc

(* An approximate quantile from the bucket histogram: the upper bound of
   the bucket containing the q-th observation. *)
let quantile h q =
  if h.total = 0 then 0.
  else begin
    let target = Int.max 1 (int_of_float (ceil (q *. float_of_int h.total))) in
    let seen = ref 0 and result = ref h.moments.(2) and found = ref false in
    Array.iteri
      (fun i c ->
        if not !found then begin
          seen := !seen + c;
          if !seen >= target then begin
            found := true;
            result := (if i = n_buckets - 1 then h.moments.(2) else bounds.(i))
          end
        end)
      h.counts;
    !result
  end

(* ------------------------------------------------------------------ *)
(* Reporting *)

let default_fmt v =
  if Float.abs v >= 1e4 || (Float.abs v < 1e-3 && v <> 0.) then Printf.sprintf "%.3e" v
  else Printf.sprintf "%g" v

let fmt_bytes v =
  if v < 0. then Printf.sprintf "%g" v
  else if v < 1024. then Printf.sprintf "%.0fB" v
  else if v < 1024. *. 1024. then Printf.sprintf "%.1fKiB" (v /. 1024.)
  else if v < 1024. *. 1024. *. 1024. then Printf.sprintf "%.1fMiB" (v /. (1024. *. 1024.))
  else Printf.sprintf "%.1fGiB" (v /. (1024. *. 1024. *. 1024.))

let fmt_seconds v =
  if Float.abs v = infinity || Float.is_nan v then Printf.sprintf "%g" v
  else Sim_time.to_string v

let pp_histogram ?(fmt = default_fmt) ppf h =
  if h.total = 0 then Format.fprintf ppf "  (empty)@."
  else begin
    Format.fprintf ppf "  n=%d mean=%s min=%s max=%s p50<=%s p99<=%s@." h.total
      (fmt (mean h)) (fmt (min_value h)) (fmt (max_value h)) (fmt (quantile h 0.5))
      (fmt (quantile h 0.99));
    let biggest =
      List.fold_left (fun acc (_, _, c) -> Int.max acc c) 1 (buckets h)
    in
    List.iter
      (fun (lo, hi, c) ->
        let bar = String.make (Int.max 1 (40 * c / biggest)) '#' in
        let lo_s = if lo = neg_infinity then "<=0 or min" else fmt lo in
        let hi_s = if hi = infinity then "inf" else fmt hi in
        Format.fprintf ppf "  (%s, %s]: %8d %s@." lo_s hi_s c bar)
      (buckets h)
  end

(* Iteration order is sorted by name, not registration order: stats dumps
   are diffable across runs (registration order depends on which code
   path touched a metric first) and usable as bench-diff inputs. *)
let iter_counters t f =
  List.iter
    (fun name -> f name (Hashtbl.find t.counters name))
    (List.sort String.compare t.counter_order)

let iter_gauges t f =
  List.iter
    (fun name -> f name (Hashtbl.find t.gauges name))
    (List.sort String.compare t.gauge_order)

let iter_histograms t f =
  List.iter
    (fun name -> f name (Hashtbl.find t.histograms name))
    (List.sort String.compare t.histogram_order)

(* ------------------------------------------------------------------ *)
(* JSON export *)

let json_into buf t =
  let root = Json_out.start_obj buf in
  Json_out.key root "counters";
  let cs = Json_out.start_obj buf in
  iter_counters t (fun name c -> Json_out.field_int cs name (count c));
  Json_out.end_obj cs;
  Json_out.key root "gauges";
  let gs = Json_out.start_obj buf in
  iter_gauges t (fun name g -> Json_out.field_float gs name g.value);
  Json_out.end_obj gs;
  Json_out.key root "histograms";
  let hs = Json_out.start_obj buf in
  iter_histograms t (fun name h ->
      Json_out.key hs name;
      let o = Json_out.start_obj buf in
      Json_out.field_int o "total" h.total;
      Json_out.field_float o "sum" (sum h);
      Json_out.field_float o "mean" (mean h);
      if h.total > 0 then begin
        Json_out.field_float o "min" (min_value h);
        Json_out.field_float o "max" (max_value h)
      end;
      Json_out.key o "buckets";
      let bs = Json_out.start_arr buf in
      List.iter
        (fun (lo, hi, c) ->
          Json_out.sep bs;
          let b = Json_out.start_obj buf in
          Json_out.field_float b "lo" lo;
          Json_out.field_float b "hi" hi;
          Json_out.field_int b "count" c;
          Json_out.end_obj b)
        (buckets h);
      Json_out.end_arr bs;
      Json_out.end_obj o);
  Json_out.end_obj hs;
  Json_out.end_obj root
