(* Declarative fault plans for the chaos plane.

   A plan is a list of deterministic fault actions, independent of the
   random per-link rates: fail a rank when its own operation counter or
   virtual clock reaches a threshold, drop the n-th message of a specific
   link, or partition a rank set from the rest for a window of simulated
   time.  Plans parse from a compact clause syntax so they travel well on
   a command line ([repro_cli --chaos]) and in CI logs:

     fail=2@ops:40          rank 2 fails at its 40th runtime operation
     fail=1@t:3.5e-6        rank 1 fails when its clock reaches 3.5us
     fail=3@task:7          rank 3 fails when it begins its 7th task
                            execution (taskqueue plugin workloads)
     droplink=0>1@3         the 3rd message on link 0->1 loses its first
                            transmission attempt (the reliable layer
                            retransmits it)
     partition=1,3@1e-6-5e-6  ranks {1,3} are cut off from the rest for
                            simulated time [1e-6, 5e-6)

   The interpreter lives in [Chaos]; this module is pure data + parsing. *)

type action =
  | Fail_at_ops of { rank : int; ops : int }
  | Fail_at_time of { rank : int; time : float }
  | Fail_at_task of { rank : int; task : int }
  | Drop_nth of { src : int; dst : int; n : int }
  | Partition of { ranks : int list; t_start : float; t_end : float }

type t = action list

let empty = []

let action_to_string = function
  | Fail_at_ops { rank; ops } -> Printf.sprintf "fail=%d@ops:%d" rank ops
  | Fail_at_time { rank; time } -> Printf.sprintf "fail=%d@t:%g" rank time
  | Fail_at_task { rank; task } -> Printf.sprintf "fail=%d@task:%d" rank task
  | Drop_nth { src; dst; n } -> Printf.sprintf "droplink=%d>%d@%d" src dst n
  | Partition { ranks; t_start; t_end } ->
      Printf.sprintf "partition=%s@%g-%g"
        (String.concat "," (List.map string_of_int ranks))
        t_start t_end

let to_string plan = String.concat ";" (List.map action_to_string plan)

(* ------------------------------------------------------------------ *)
(* Parsing.  Every helper returns a result so a bad spec surfaces as a
   message naming the offending clause, not as an exception. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let int_of clause s =
  match int_of_string_opt (String.trim s) with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s: %S is not an integer" clause s)

let float_of clause s =
  match float_of_string_opt (String.trim s) with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: %S is not a number" clause s)

let split2 clause ~on s =
  match String.index_opt s on with
  | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> Error (Printf.sprintf "%s: expected %c in %S" clause on s)

let parse_fail clause rhs =
  let* rank_s, trigger = split2 clause ~on:'@' rhs in
  let* rank = int_of clause rank_s in
  if rank < 0 then Error (Printf.sprintf "%s: negative rank" clause)
  else
    let* kind, value = split2 clause ~on:':' trigger in
    match String.trim kind with
    | "ops" ->
        let* ops = int_of clause value in
        if ops < 1 then Error (Printf.sprintf "%s: op count must be >= 1" clause)
        else Ok (Fail_at_ops { rank; ops })
    | "t" ->
        let* time = float_of clause value in
        if time < 0. then Error (Printf.sprintf "%s: negative time" clause)
        else Ok (Fail_at_time { rank; time })
    | "task" ->
        let* task = int_of clause value in
        if task < 1 then Error (Printf.sprintf "%s: task index must be >= 1" clause)
        else Ok (Fail_at_task { rank; task })
    | k -> Error (Printf.sprintf "%s: unknown trigger %S (want ops:, t: or task:)" clause k)

let parse_droplink clause rhs =
  let* link, n_s = split2 clause ~on:'@' rhs in
  let* src_s, dst_s = split2 clause ~on:'>' link in
  let* src = int_of clause src_s in
  let* dst = int_of clause dst_s in
  let* n = int_of clause n_s in
  if src < 0 || dst < 0 then Error (Printf.sprintf "%s: negative rank" clause)
  else if n < 1 then Error (Printf.sprintf "%s: message index is 1-based" clause)
  else Ok (Drop_nth { src; dst; n })

(* The window separator is the first '-' that is neither a leading sign
   nor part of a scientific-notation exponent: "1e-06-5e-06" must split
   after "1e-06", not inside it (which is exactly what [to_string]
   prints for sub-microsecond windows via %g). *)
let split_window clause s =
  let n = String.length s in
  let rec find i =
    if i >= n then None
    else if s.[i] = '-' && s.[i - 1] <> 'e' && s.[i - 1] <> 'E' then Some i
    else find (i + 1)
  in
  match find 1 with
  | Some i -> Ok (String.sub s 0 i, String.sub s (i + 1) (n - i - 1))
  | None -> Error (Printf.sprintf "%s: expected start-end window in %S" clause s)

let parse_partition clause rhs =
  let* ranks_s, window = split2 clause ~on:'@' rhs in
  let* ranks =
    String.split_on_char ',' ranks_s
    |> List.fold_left
         (fun acc s ->
           let* acc = acc in
           let* r = int_of clause s in
           if r < 0 then Error (Printf.sprintf "%s: negative rank" clause)
           else Ok (r :: acc))
         (Ok [])
  in
  let ranks = List.sort_uniq compare ranks in
  if ranks = [] then Error (Printf.sprintf "%s: empty rank set" clause)
  else
    let* t0_s, t1_s = split_window clause window in
    let* t_start = float_of clause t0_s in
    let* t_end = float_of clause t1_s in
    if t_start < 0. || t_end < t_start then
      Error (Printf.sprintf "%s: window must satisfy 0 <= start <= end" clause)
    else Ok (Partition { ranks; t_start; t_end })

(* One clause, e.g. "fail=2@ops:40". *)
let parse_action (clause : string) : (action, string) result =
  let clause = String.trim clause in
  let* key, rhs = split2 clause ~on:'=' clause in
  match String.trim key with
  | "fail" -> parse_fail clause rhs
  | "droplink" -> parse_droplink clause rhs
  | "partition" -> parse_partition clause rhs
  | k -> Error (Printf.sprintf "unknown fault-plan clause %S in %S" k clause)

(* A ';'-separated clause list; empty clauses are skipped so trailing
   separators are harmless. *)
let parse (s : string) : (t, string) result =
  String.split_on_char ';' s
  |> List.fold_left
       (fun acc clause ->
         let* acc = acc in
         if String.trim clause = "" then Ok acc
         else
           let* a = parse_action clause in
           Ok (a :: acc))
       (Ok [])
  |> Result.map List.rev
