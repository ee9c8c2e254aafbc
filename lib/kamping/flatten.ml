(* The with_flattened utility (paper §IV-B, Fig. 9).

   Irregular algorithms naturally produce a mapping destination -> message
   buffer; dense exchange calls want one contiguous buffer plus per-rank
   send counts.  [flatten] converts between the two, and
   [alltoallv] composes it with the exchange so a frontier exchange is a
   one-liner. *)

open Mpisim

(* Flatten a destination-indexed table of element lists into (contiguous
   data grouped by destination rank, send counts).  Within a destination,
   elements keep their list order. *)
let flatten ~size (table : (int, 'a list) Hashtbl.t) : 'a array * int array =
  let send_counts = Array.make size 0 in
  Hashtbl.iter
    (fun dest xs ->
      if dest < 0 || dest >= size then
        Errdefs.usage_error "flatten: destination %d out of range" dest;
      send_counts.(dest) <- send_counts.(dest) + List.length xs)
    table;
  let displs = Array.make size 0 in
  for i = 1 to size - 1 do
    displs.(i) <- displs.(i - 1) + send_counts.(i - 1)
  done;
  let total = if size = 0 then 0 else displs.(size - 1) + send_counts.(size - 1) in
  if total = 0 then ([||], send_counts)
  else begin
    let seed = Hashtbl.fold (fun _ xs acc -> match xs, acc with x :: _, None -> Some x | _ -> acc) table None in
    let seed = match seed with Some s -> s | None -> assert false in
    let out = Array.make total seed in
    let cursor = Array.copy displs in
    Hashtbl.iter
      (fun dest xs ->
        List.iter
          (fun x ->
            out.(cursor.(dest)) <- x;
            cursor.(dest) <- cursor.(dest) + 1)
          xs)
      table;
    (out, send_counts)
  end

(* Flatten and exchange in one call: the BFS frontier-exchange one-liner. *)
let alltoallv comm dt (table : (int, 'a list) Hashtbl.t) : 'a array =
  let data, send_counts = flatten ~size:(Communicator.size comm) table in
  Collectives.alltoallv comm dt ~send_counts data
