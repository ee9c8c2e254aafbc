(* The examples' shared command line: [--check off|light|heavy] anywhere
   runs the example under that {!Mpisim.Check} sanitizer level (default
   off); every other argument is positional.

     dune exec examples/sorting.exe -- --check heavy 8 1000 *)

let usage () =
  prerr_endline "usage: --check off|light|heavy, then the example's positional arguments";
  exit 2

let check_level, positional =
  let rec go level acc = function
    | "--check" :: l :: rest -> (
        match Mpisim.Check.level_of_string l with
        | Some level -> go level acc rest
        | None -> usage ())
    | [ "--check" ] -> usage ()
    | a :: rest -> go level (a :: acc) rest
    | [] -> (level, List.rev acc)
  in
  go Mpisim.Check.Off [] (List.tl (Array.to_list Sys.argv))

(* Positional argument [i] (from 0) through [parse], or [default] when it
   is absent or does not parse. *)
let arg i parse ~default =
  match List.nth_opt positional i with
  | Some s -> ( try parse s with _ -> default)
  | None -> default
