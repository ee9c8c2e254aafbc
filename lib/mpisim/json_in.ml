(* Minimal JSON parser, the read-side counterpart of Json_out.

   Exists so the bench-diff regression gate can consume the JSON Lines
   files the benchmark harness emits without adding a dependency.  It is
   a plain recursive-descent parser over a string: full value grammar,
   \uXXXX escapes decoded to UTF-8 (surrogate pairs folded), numbers via
   [float_of_string] (Json_out never emits anything it can't read
   back). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" st.pos m))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> error st "expected %C, got %C" c got
  | None -> error st "expected %C, got end of input" c

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st "invalid literal"

let utf8_add buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> error st "bad \\u escape"
        in
        v := (!v * 16) + d
    | None -> error st "bad \\u escape");
    advance st
  done;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let cp = hex4 st in
                (* Fold a UTF-16 surrogate pair into one code point. *)
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  expect st '\\';
                  expect st 'u';
                  let lo = hex4 st in
                  if lo < 0xDC00 || lo > 0xDFFF then error st "lone high surrogate";
                  utf8_add buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then
                  (* A low surrogate with no preceding high half encodes
                     no code point at all. *)
                  error st "unpaired low surrogate"
                else utf8_add buf cp
            | _ -> error st "bad escape \\%c" c);
            loop ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  if st.pos = start then error st "expected a number";
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some f -> f
  | None -> error st "malformed number"

(* Nesting bound: recursive descent burns OCaml stack per '['/'{' level,
   so adversarial input like 100k '['s must fail with a clean parse
   error, not Stack_overflow.  1000 levels is far beyond anything the
   bench harness emits. *)
let max_depth = 1000

let rec parse_value ?(depth = 0) st =
  let parse_value st = parse_value ~depth:(depth + 1) st in
  if depth > max_depth then error st "nesting deeper than %d levels" max_depth;
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ()
          | Some '}' -> advance st
          | _ -> error st "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements ()
          | Some ']' -> advance st
          | _ -> error st "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "at %d: trailing garbage" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* JSON Lines: one value per non-blank line. *)
let parse_lines s =
  let lines = String.split_on_char '\n' s in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (n + 1) acc rest
        else begin
          match parse line with
          | Ok v -> go (n + 1) (v :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" n msg)
        end
  in
  go 1 [] lines

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function Num f -> Some f | _ -> None
