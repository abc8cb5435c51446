let sites =
  [
    "exit";
    "hypercall";
    "hypercall_ret";
    "ept";
    "inject";
    "block";
    "instr";
    "pool_acquire";
    "pool_release";
    "pool_evict";
    "pool_prewarm";
    "sup_attempt";
    "sup_backoff";
    "sup_quarantine";
    "gateway";
    "sched";
    "steal";
    "idle";
    "ring_enter";
    "ring_op";
  ]

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge
type lit = Int of int64 | Str of string
type term = Field of string | Lit of lit

type pred =
  | True
  | Cmp of term * cmp_op * term
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type aggfun = Count | Sum | Min | Max | Avg | Hist | Quantile of float
type action = { agg : aggfun; operand : string option; by : string list }
type probe = { site : string; pred : pred; action : action }
type spec = probe list

(* ---------------------------------------------------------------- lexer *)

type tok =
  | IDENT of string
  | INT of int64
  | FLOAT of float
  | STR of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | COMMA
  | COLON
  | SEMI
  | CMP of cmp_op
  | ANDAND
  | OROR
  | BANG
  | EOF

exception Err of int * string

let fail pos msg = raise (Err (pos, msg))

let tok_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> Printf.sprintf "integer %Ld" i
  | FLOAT f -> Printf.sprintf "number %g" f
  | STR s -> Printf.sprintf "string %S" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | COMMA -> "','"
  | COLON -> "':'"
  | SEMI -> "';'"
  | CMP Eq -> "'=='"
  | CMP Ne -> "'!='"
  | CMP Lt -> "'<'"
  | CMP Le -> "'<='"
  | CMP Gt -> "'>'"
  | CMP Ge -> "'>='"
  | ANDAND -> "'&&'"
  | OROR -> "'||'"
  | BANG -> "'!'"
  | EOF -> "end of input"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident c =
  is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let push t pos = toks := (t, pos) :: !toks in
  while !i < n do
    let c = src.[!i] in
    let pos = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident src.[!j] do incr j done;
      push (IDENT (String.sub src !i (!j - !i))) pos;
      i := !j
    end
    else if is_digit c then begin
      let j = ref !i in
      if
        c = '0' && !i + 1 < n
        && (src.[!i + 1] = 'x' || src.[!i + 1] = 'X')
      then begin
        j := !i + 2;
        while
          !j < n
          && (is_digit src.[!j]
             || (src.[!j] >= 'a' && src.[!j] <= 'f')
             || (src.[!j] >= 'A' && src.[!j] <= 'F'))
        do
          incr j
        done;
        if !j = !i + 2 then fail pos "bad hex literal";
        push (INT (Int64.of_string (String.sub src !i (!j - !i)))) pos
      end
      else begin
        while !j < n && is_digit src.[!j] do incr j done;
        if !j < n && src.[!j] = '.' then begin
          incr j;
          while !j < n && is_digit src.[!j] do incr j done;
          push (FLOAT (float_of_string (String.sub src !i (!j - !i)))) pos
        end
        else push (INT (Int64.of_string (String.sub src !i (!j - !i)))) pos
      end;
      i := !j
    end
    else if c = '"' then begin
      let b = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while (not !closed) && !j < n do
        if src.[!j] = '"' then closed := true
        else begin
          if src.[!j] = '\\' && !j + 1 < n then begin
            incr j;
            Buffer.add_char b src.[!j]
          end
          else Buffer.add_char b src.[!j];
          incr j
        end
      done;
      if not !closed then fail pos "unterminated string literal";
      push (STR (Buffer.contents b)) pos;
      i := !j + 1
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "==" -> push (CMP Eq) pos; i := !i + 2
      | "!=" -> push (CMP Ne) pos; i := !i + 2
      | "<=" -> push (CMP Le) pos; i := !i + 2
      | ">=" -> push (CMP Ge) pos; i := !i + 2
      | "&&" -> push ANDAND pos; i := !i + 2
      | "||" -> push OROR pos; i := !i + 2
      | _ -> (
          (match c with
          | '{' -> push LBRACE pos
          | '}' -> push RBRACE pos
          | '(' -> push LPAREN pos
          | ')' -> push RPAREN pos
          | ',' -> push COMMA pos
          | ':' -> push COLON pos
          | ';' -> push SEMI pos
          | '<' -> push (CMP Lt) pos
          | '>' -> push (CMP Gt) pos
          | '!' -> push BANG pos
          | _ -> fail pos (Printf.sprintf "unexpected character %C" c));
          incr i)
    end
  done;
  toks := (EOF, n) :: !toks;
  Array.of_list (List.rev !toks)

(* --------------------------------------------------------------- parser *)

type state = { toks : (tok * int) array; mutable cur : int }

let peek st = fst st.toks.(st.cur)
let pos st = snd st.toks.(st.cur)
let advance st = st.cur <- st.cur + 1

let expect st t =
  if peek st = t then advance st
  else
    fail (pos st)
      (Printf.sprintf "expected %s, got %s" (tok_to_string t)
         (tok_to_string (peek st)))

let ident st =
  match peek st with
  | IDENT s -> advance st; s
  | t -> fail (pos st) (Printf.sprintf "expected identifier, got %s" (tok_to_string t))

let field st =
  let p = pos st in
  let name = ident st in
  match Ctx.canonical name with
  | Some f -> f
  | None ->
      fail p
        (Printf.sprintf "unknown field %S (known: %s)" name
           (String.concat ", " Ctx.fields))

let term st =
  match peek st with
  | INT i -> advance st; Lit (Int i)
  | STR s -> advance st; Lit (Str s)
  | IDENT _ -> Field (field st)
  | t -> fail (pos st) (Printf.sprintf "expected field or literal, got %s" (tok_to_string t))

let term_is_string = function
  | Field f -> not (Ctx.is_numeric f)
  | Lit (Str _) -> true
  | Lit (Int _) -> false

let check_cmp p l op r =
  let ls = term_is_string l and rs = term_is_string r in
  if ls <> rs then fail p "comparison mixes a string and a number";
  if ls && op <> Eq && op <> Ne then
    fail p "string fields compare only with == or !="

let rec pred_or st =
  let l = pred_and st in
  if peek st = OROR then begin
    advance st;
    Or (l, pred_or st)
  end
  else l

and pred_and st =
  let l = pred_atom st in
  if peek st = ANDAND then begin
    advance st;
    And (l, pred_and st)
  end
  else l

and pred_atom st =
  match peek st with
  | BANG ->
      advance st;
      Not (pred_atom st)
  | LPAREN ->
      advance st;
      let p = pred_or st in
      expect st RPAREN;
      p
  | _ -> (
      let p = pos st in
      let l = term st in
      match peek st with
      | CMP op ->
          advance st;
          let r = term st in
          check_cmp p l op r;
          Cmp (l, op, r)
      | t ->
          fail (pos st)
            (Printf.sprintf "expected comparison operator, got %s"
               (tok_to_string t)))

let aggfun_of_name p = function
  | "count" -> Count
  | "sum" -> Sum
  | "min" -> Min
  | "max" -> Max
  | "avg" -> Avg
  | "hist" -> Hist
  | "p" -> Quantile 0.0 (* quantile filled in by caller *)
  | name ->
      fail p
        (Printf.sprintf
           "unknown aggregation %S (known: count, sum, min, max, avg, hist, p)"
           name)

let action st =
  let p = pos st in
  let name = ident st in
  let agg = aggfun_of_name p name in
  expect st LPAREN;
  let agg, operand =
    match agg with
    | Quantile _ ->
        let q =
          match peek st with
          | FLOAT f -> advance st; f
          | INT i -> advance st; Int64.to_float i
          | t ->
              fail (pos st)
                (Printf.sprintf "p() needs a quantile first, got %s"
                   (tok_to_string t))
        in
        if q < 0.0 || q > 100.0 then fail p "quantile must be in [0, 100]";
        expect st COMMA;
        let fp = pos st in
        let f = field st in
        if not (Ctx.is_numeric f) then
          fail fp (Printf.sprintf "p() needs a numeric field, %S is a string" f);
        (Quantile q, Some f)
    | Count ->
        if peek st <> RPAREN then
          fail (pos st) "count() takes no operand";
        (Count, None)
    | _ ->
        let fp = pos st in
        let f = field st in
        if not (Ctx.is_numeric f) then
          fail fp
            (Printf.sprintf "%s() needs a numeric field, %S is a string" name f);
        (agg, Some f)
  in
  expect st RPAREN;
  let by =
    match peek st with
    | IDENT "by" ->
        advance st;
        expect st LPAREN;
        let rec more acc =
          let f = field st in
          if peek st = COMMA then begin
            advance st;
            more (f :: acc)
          end
          else List.rev (f :: acc)
        in
        let fs = more [] in
        expect st RPAREN;
        fs
    | _ -> []
  in
  { agg; operand; by }

let probe st =
  let p = pos st in
  let site = ident st in
  if not (List.mem site sites) then
    fail p
      (Printf.sprintf "unknown probe site %S (known: %s)" site
         (String.concat ", " sites));
  let pred =
    if peek st = COLON then begin
      advance st;
      pred_or st
    end
    else True
  in
  expect st LBRACE;
  let action = action st in
  expect st RBRACE;
  { site; pred; action }

let parse src =
  match
    let st = { toks = lex src; cur = 0 } in
    let rec probes acc =
      let pr = probe st in
      match peek st with
      | SEMI ->
          advance st;
          if peek st = EOF then List.rev (pr :: acc) else probes (pr :: acc)
      | EOF -> List.rev (pr :: acc)
      | t ->
          fail (pos st)
            (Printf.sprintf "expected ';' or end of input, got %s"
               (tok_to_string t))
    in
    if peek st = EOF then fail 0 "empty probe spec" else probes []
  with
  | spec -> Ok spec
  | exception Err (p, msg) -> Error (Printf.sprintf "at offset %d: %s" p msg)
  | exception Failure msg -> Error msg

(* -------------------------------------------------------------- printer *)

let cmp_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let lit_to_string = function
  | Int i -> Int64.to_string i
  | Str s -> Printf.sprintf "%S" s

let term_to_string = function Field f -> f | Lit l -> lit_to_string l

(* precedence: Or = 0, And = 1, atoms = 2 *)
let rec pred_to_string prec = function
  | True -> "true"
  | Cmp (l, op, r) ->
      Printf.sprintf "%s %s %s" (term_to_string l) (cmp_to_string op)
        (term_to_string r)
  | And (l, r) ->
      let s =
        Printf.sprintf "%s && %s" (pred_to_string 2 l) (pred_to_string 1 r)
      in
      if prec > 1 then "(" ^ s ^ ")" else s
  | Or (l, r) ->
      let s =
        Printf.sprintf "%s || %s" (pred_to_string 1 l) (pred_to_string 0 r)
      in
      if prec > 0 then "(" ^ s ^ ")" else s
  | Not p -> "!(" ^ pred_to_string 0 p ^ ")"

let quantile_to_string q =
  (* %g keeps 99.9 as "99.9" and 50. as "50" *)
  Printf.sprintf "%g" q

let agg_to_string a =
  match (a.agg, a.operand) with
  | Count, _ -> "count()"
  | Quantile q, Some f -> Printf.sprintf "p(%s, %s)" (quantile_to_string q) f
  | Sum, Some f -> Printf.sprintf "sum(%s)" f
  | Min, Some f -> Printf.sprintf "min(%s)" f
  | Max, Some f -> Printf.sprintf "max(%s)" f
  | Avg, Some f -> Printf.sprintf "avg(%s)" f
  | Hist, Some f -> Printf.sprintf "hist(%s)" f
  | _, None -> assert false

let action_to_string a =
  match a.by with
  | [] -> agg_to_string a
  | by -> Printf.sprintf "%s by (%s)" (agg_to_string a) (String.concat ", " by)

let probe_to_string p =
  match p.pred with
  | True -> Printf.sprintf "%s { %s }" p.site (action_to_string p.action)
  | pred ->
      Printf.sprintf "%s:%s { %s }" p.site (pred_to_string 0 pred)
        (action_to_string p.action)

let to_string spec = String.concat "; " (List.map probe_to_string spec)

let agg_name = function
  | Count -> "count"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"
  | Hist -> "hist"
  | Quantile q ->
      let s = quantile_to_string q in
      "p"
      ^ String.map (function '.' -> '_' | c -> c) s
