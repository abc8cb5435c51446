type token = NUM of float | STR of string | IDENT of string | KW of string | PUNCT of string | EOF

let token_name = function
  | NUM f -> Printf.sprintf "number %g" f
  | STR s -> Printf.sprintf "string %S" s
  | IDENT s -> Printf.sprintf "identifier %s" s
  | KW s -> Printf.sprintf "'%s'" s
  | PUNCT s -> Printf.sprintf "'%s'" s
  | EOF -> "end of input"

exception Error of { line : int; msg : string }

let is_keyword = function
  | "var" | "let" | "const" | "function" | "return" | "if" | "else" | "while" | "for" | "true"
  | "false" | "null" | "undefined" | "break" | "continue" | "new" | "typeof" | "try" | "catch"
  | "finally" | "throw" ->
      true
  | _ -> false

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident c = is_ident_start c || is_digit c

(* The punctuator starting with [c], longest match first: [next k] is
   the character [k] places after [c] ('\000' past the end). *)
let punct c next =
  match c with
  | '=' -> if next 1 = '=' then if next 2 = '=' then "===" else "==" else "="
  | '!' -> if next 1 = '=' then if next 2 = '=' then "!==" else "!=" else "!"
  | '<' -> (
      match next 1 with '<' -> if next 2 = '=' then "<<=" else "<<" | '=' -> "<=" | _ -> "<")
  | '>' -> (
      match next 1 with '>' -> if next 2 = '=' then ">>=" else ">>" | '=' -> ">=" | _ -> ">")
  | '&' -> if next 1 = '&' then "&&" else "&"
  | '|' -> if next 1 = '|' then "||" else "|"
  | '+' -> ( match next 1 with '=' -> "+=" | '+' -> "++" | _ -> "+")
  | '-' -> ( match next 1 with '=' -> "-=" | '-' -> "--" | _ -> "-")
  | '*' -> if next 1 = '=' then "*=" else "*"
  | '/' -> if next 1 = '=' then "/=" else "/"
  | '%' -> if next 1 = '=' then "%=" else "%"
  | '(' -> "(" | ')' -> ")" | '{' -> "{" | '}' -> "}" | '[' -> "[" | ']' -> "]"
  | ';' -> ";" | ',' -> "," | '.' -> "." | '?' -> "?" | ':' -> ":" | '^' -> "^"
  | '~' -> "~"
  | _ -> ""

let tokenize src =
  let n = String.length src in
  let pos = ref 0 and line = ref 1 in
  let out = ref [] in
  let fail msg = raise (Error { line = !line; msg }) in
  (* the character [k] places ahead, '\000' past the end *)
  let next k = if !pos + k < n then String.unsafe_get src (!pos + k) else '\000' in
  let skip_while p =
    while !pos < n && p (String.unsafe_get src !pos) do
      incr pos
    done
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      incr pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '/' && next 1 = '/' then skip_while (fun c -> c <> '\n')
    else if c = '/' && next 1 = '*' then begin
      pos := !pos + 2;
      let closed = ref false in
      while (not !closed) && !pos < n do
        if src.[!pos] = '\n' then incr line;
        if src.[!pos] = '*' && next 1 = '/' then begin
          closed := true;
          pos := !pos + 2
        end
        else incr pos
      done;
      if not !closed then fail "unterminated comment"
    end
    else if is_digit c then begin
      let start = !pos in
      if c = '0' && (next 1 = 'x' || next 1 = 'X') then begin
        pos := !pos + 2;
        skip_while is_hex;
        let text = String.sub src start (!pos - start) in
        match Int64.of_string_opt text with
        | Some v -> out := (NUM (Int64.to_float v), !line) :: !out
        | None -> fail (Printf.sprintf "bad number %s" text)
      end
      else begin
        skip_while is_digit;
        if next 0 = '.' && is_digit (next 1) then begin
          incr pos;
          skip_while is_digit
        end;
        let text = String.sub src start (!pos - start) in
        match float_of_string_opt text with
        | Some v -> out := (NUM v, !line) :: !out
        | None -> fail (Printf.sprintf "bad number %s" text)
      end
    end
    else if is_ident_start c then begin
      let start = !pos in
      skip_while is_ident;
      let text = String.sub src start (!pos - start) in
      if is_keyword text then out := (KW text, !line) :: !out
      else out := (IDENT text, !line) :: !out
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      incr pos;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !pos < n do
        let d = src.[!pos] in
        if d = quote then begin
          closed := true;
          incr pos
        end
        else if d = '\\' && !pos + 1 < n then begin
          (match src.[!pos + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | '0' -> Buffer.add_char buf '\000'
          | '\\' -> Buffer.add_char buf '\\'
          | '\'' -> Buffer.add_char buf '\''
          | '"' -> Buffer.add_char buf '"'
          | e -> fail (Printf.sprintf "bad escape \\%c" e));
          pos := !pos + 2
        end
        else begin
          if d = '\n' then incr line;
          Buffer.add_char buf d;
          incr pos
        end
      done;
      if not !closed then fail "unterminated string";
      out := (STR (Buffer.contents buf), !line) :: !out
    end
    else begin
      match punct c next with
      | "" -> fail (Printf.sprintf "unexpected character %C" c)
      | p ->
          pos := !pos + String.length p;
          out := (PUNCT p, !line) :: !out
    end
  done;
  List.rev ((EOF, !line) :: !out)
