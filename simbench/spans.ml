(* In-memory span recorder for the traced run.

   Spans are taken by the benchmark's own code around each call into a
   layer's public functions ([kamping.*], [coll.*], [p2p.*], [plugins.*]),
   and around every rank's own work ([app.*]: output checks, checksums,
   the BFS driver's local work); nothing inside the simulator is
   instrumented.  The text before the first '.' of a span name is its
   layer.

   Rank 0's spans are aggregated online per name (count and self
   nanoseconds), and every rank's per name (total nanoseconds) — the
   ledger reads those.  On the sequential scheduler the other ranks run
   while rank 0 is parked inside a call, so the wall time of a rank-0
   layer span also holds their work.  Their layer work stays in it (the
   ledger splits the whole process's time, not rank 0's), but their
   [app.*] spans that run inside an open rank-0 layer span are taken off
   its self time: app work is booked once, in the all-rank app total.
   App work never yields, so each app span lies wholly inside or wholly
   outside a rank-0 span.

   Every rank's spans are also kept, up to [capacity], and written out
   when the run ends.  While recording is off, [record] is one branch
   around the call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let on = ref false

(* The step index rank 0 is in; stamped into kept spans. *)
let step = ref 0

let max_names = 64

let names = Array.make max_names ""

let n_names = ref 0

let layer_of_name n = match String.index_opt n '.' with Some i -> String.sub n 0 i | None -> n

let is_app = Array.make max_names false

let register name =
  let rec find i = if i >= !n_names then None else if names.(i) = name then Some i else find (i + 1) in
  match find 0 with
  | Some i -> i
  | None ->
      if !n_names >= max_names then invalid_arg "Spans.register: too many span names";
      let i = !n_names in
      names.(i) <- name;
      is_app.(i) <- layer_of_name name = "app";
      incr n_names;
      i

let layer_of id = layer_of_name names.(id)

(* Rank-0 aggregates, per span name: count and self nanoseconds. *)
let count = Array.make max_names 0

let total_ns = Array.make max_names 0

(* All ranks' nanoseconds, per span name. *)
let all_ns = Array.make max_names 0

(* Whether a rank-0 layer span is open, and the other ranks' app
   nanoseconds recorded inside it so far. *)
let open0 = ref false

let nested_app = ref 0

(* Kept spans; the buffers are allocated by [keep] so untraced runs do
   not carry them in their heap. *)
let capacity = 200_000

let kept_id = ref [||]

let kept_rank = ref [||]

let kept_step = ref [||]

let kept_start = ref [||]

let kept_dur = ref [||]

let kept = ref 0

let dropped = ref 0

let keep () =
  List.iter (fun a -> a := Array.make capacity 0) [ kept_id; kept_rank; kept_step; kept_start; kept_dur ];
  kept := 0;
  dropped := 0

let record id ~rank f =
  if not !on then f ()
  else begin
    let outer = rank = 0 && not is_app.(id) in
    if outer then begin
      open0 := true;
      nested_app := 0
    end;
    let t0 = now_ns () in
    let r =
      match f () with
      | r -> r
      | exception e ->
          if outer then open0 := false;
          raise e
    in
    let d = now_ns () - t0 in
    all_ns.(id) <- all_ns.(id) + d;
    if rank = 0 then begin
      let self =
        if outer then begin
          open0 := false;
          d - !nested_app
        end
        else d
      in
      count.(id) <- count.(id) + 1;
      total_ns.(id) <- total_ns.(id) + self
    end
    else if is_app.(id) && !open0 then nested_app := !nested_app + d;
    let k = !kept in
    if k < Array.length !kept_id then begin
      !kept_id.(k) <- id;
      !kept_rank.(k) <- rank;
      !kept_step.(k) <- !step;
      !kept_start.(k) <- t0;
      !kept_dur.(k) <- d;
      kept := k + 1
    end
    else incr dropped;
    r
  end

(* One JSON object per line: a header, then the kept spans in recording
   order, start times relative to the first kept span. *)
let write ~path ~header =
  let oc = open_out path in
  Printf.fprintf oc "{\"header\": %s, \"kept\": %d, \"dropped\": %d}\n" header !kept !dropped;
  let base = if !kept > 0 then !kept_start.(0) else 0 in
  for k = 0 to !kept - 1 do
    Printf.fprintf oc
      "{\"name\": \"%s\", \"rank\": %d, \"step\": %d, \"start_ns\": %d, \"dur_ns\": %d}\n"
      names.(!kept_id.(k)) !kept_rank.(k) !kept_step.(k) (!kept_start.(k) - base) !kept_dur.(k)
  done;
  close_out oc
