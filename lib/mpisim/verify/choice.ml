(* Recordable decision points for the schedule-space model checker.

   The simulator is deterministic: round-robin scheduling plus
   oldest-message-wins wildcard arbitration picks exactly one schedule
   per program.  The *space* of schedules a real MPI could exhibit hides
   in the wildcard-receive match choices.  This module makes those
   choices explicit: in a model-checked run, wildcard receives are
   deferred (the run's mailboxes skip their immediate match), the
   scheduler's quiescence hook resolves them one at a time, and every
   resolution is recorded here as a (site, candidate-count, chosen-index)
   decision.  A decision script replays a schedule exactly; the explorer
   (Explore) enumerates scripts.

   A controller belongs to one run: Explore creates it and consults it
   from that run's quiescence hook, so nothing here is process-global and
   other runs — on this domain or another — never see it. *)

type decision = {
  d_rank : int;  (* receiver world rank of the resolved site *)
  d_pid : int;  (* posted-receive id within that rank's mailbox *)
  d_ncand : int;  (* eligible candidate messages at resolution time *)
  d_chosen : int;  (* index (by global seq order) actually matched *)
  d_pruned : int;  (* non-head eligible messages pruned by non-overtaking *)
}

type t = {
  mutable script : int array;  (* choices to replay; beyond the end: 0 *)
  mutable cursor : int;
  mutable log : decision list;  (* newest first *)
  mutable pruned : int;  (* total non-overtaking-pruned alternatives *)
}

let create ~script = { script = Array.of_list script; cursor = 0; log = []; pruned = 0 }

(* The scripted (or default-0) choice for the next decision site with
   [ncand] candidates; records the decision.  Out-of-range scripted
   values clamp so a replayed trace from a different run cannot crash
   the resolver. *)
let next t ~rank ~pid ~ncand ~pruned =
  let wanted = if t.cursor < Array.length t.script then t.script.(t.cursor) else 0 in
  let chosen = if wanted < 0 then 0 else if wanted >= ncand then ncand - 1 else wanted in
  t.cursor <- t.cursor + 1;
  t.pruned <- t.pruned + pruned;
  t.log <-
    { d_rank = rank; d_pid = pid; d_ncand = ncand; d_chosen = chosen; d_pruned = pruned }
    :: t.log;
  chosen

(* Chronological decision log of the controller's run. *)
let decisions t = List.rev t.log

let pruned t = t.pruned

(* Decision-trace wire format: the chosen indices, comma-separated —
   "0,2,1" replays three decisions.  Compact enough for CI logs and
   --replay flags; parse accepts the empty string as the empty script. *)
let script_to_string (s : int list) = String.concat "," (List.map string_of_int s)

let script_of_string (s : string) : (int list, string) result =
  let s = String.trim s in
  if s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc tok ->
           match acc with
           | Error _ as e -> e
           | Ok acc -> (
               match int_of_string_opt (String.trim tok) with
               | Some v when v >= 0 -> Ok (v :: acc)
               | Some _ -> Error (Printf.sprintf "negative choice %S in decision trace" tok)
               | None -> Error (Printf.sprintf "%S is not a choice index" tok)))
         (Ok [])
    |> Result.map List.rev
