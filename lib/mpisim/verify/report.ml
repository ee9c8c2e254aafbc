(* Findings shared by the two verification engines.

   The offline happens-before analyzer (Hb) and the schedule-space model
   checker (Explore) report through the same record so repro_cli renders
   both uniformly and CI can grep one format.  [f_flow] is the global
   message sequence number of the send the finding anchors on — the same
   id the Chrome-trace exporter keys its flow arrows on, so a finding
   can be looked up visually in the converted trace. *)

type finding = {
  f_class : string;
      (* "wildcard-race" | "nc-order" | "buffer-reuse" | "deadlock"
         | "nondet-match" | a Check counter name *)
  f_rank : int;  (* rank the finding anchors on; -1 = whole run *)
  f_flow : int;  (* Chrome-trace flow id (global msg seq); -1 = none *)
  f_detail : string;
}

let make ~cls ~rank ~flow detail = { f_class = cls; f_rank = rank; f_flow = flow; f_detail = detail }

let pp_finding ppf f =
  Format.fprintf ppf "[%s]" f.f_class;
  if f.f_rank >= 0 then Format.fprintf ppf " rank %d" f.f_rank;
  if f.f_flow >= 0 then Format.fprintf ppf " flow %d" f.f_flow;
  Format.fprintf ppf ": %s" f.f_detail

let print_findings ppf findings =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp_finding f) findings

(* Stable class list of a finding set, for summaries and assertions. *)
let classes findings =
  List.sort_uniq compare (List.map (fun f -> f.f_class) findings)

let has_class findings cls = List.exists (fun f -> f.f_class = cls) findings

(* Entry [i] of a vector clock.  Clocks may be stored trimmed: entries
   past the end of the array are zero. *)
let vc_get vc i = if i < Array.length vc then vc.(i) else 0

(* A vector clock over [ranks] ranks rendered as "<1,0,3>" for witnesses
   in finding text. *)
let vc_to_string ~ranks vc =
  "<" ^ String.concat "," (List.init ranks (fun i -> string_of_int (vc_get vc i))) ^ ">"

(* Are two vector clocks causally incomparable (concurrent)?  [a <= b]
   component-wise means a happens-before (or equals) b; concurrency is
   neither direction holding. *)
let vc_concurrent a b =
  let a_le_b = ref true and b_le_a = ref true in
  for i = 0 to Int.max (Array.length a) (Array.length b) - 1 do
    let x = vc_get a i and y = vc_get b i in
    if x > y then a_le_b := false;
    if y > x then b_le_a := false
  done;
  (not !a_le_b) && not !b_le_a
