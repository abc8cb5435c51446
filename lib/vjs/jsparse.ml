exception Error of { line : int; msg : string }

(* [loops] counts the loops around the current statement within the
   current function: [break] and [continue] are legal only inside one. *)
type state = { toks : (Jslex.token * int) array; mutable cur : int; mutable loops : int }

let peek st = fst st.toks.(st.cur)
let line st = snd st.toks.(st.cur)
let advance st = if st.cur < Array.length st.toks - 1 then st.cur <- st.cur + 1

let fail st msg = raise (Error { line = line st; msg })

let expect_punct st p =
  match peek st with
  | Jslex.PUNCT q when q = p -> advance st
  | other -> fail st (Printf.sprintf "expected '%s', found %s" p (Jslex.token_name other))

let is_punct st p = match peek st with Jslex.PUNCT q -> q = p | _ -> false
let is_kw st k = match peek st with Jslex.KW q -> q = k | _ -> false

let ident st =
  match peek st with
  | Jslex.IDENT name ->
      advance st;
      name
  | other -> fail st (Printf.sprintf "expected identifier, found %s" (Jslex.token_name other))

(* precedence for binary operators *)
let prec = function
  | "*" | "/" | "%" -> 11
  | "+" | "-" -> 10
  | "<<" | ">>" -> 9
  | "<" | "<=" | ">" | ">=" -> 8
  | "==" | "!=" | "===" | "!==" -> 7
  | "&" -> 6
  | "^" -> 5
  | "|" -> 4
  | "&&" -> 3
  | "||" -> 2
  | _ -> -1

let rec parse_expr st = parse_assign st

and parse_assign st =
  let lhs = parse_ternary st in
  match peek st with
  | Jslex.PUNCT "=" ->
      advance st;
      Jsast.Eassign (lhs, parse_assign st)
  | Jslex.PUNCT ("+=" | "-=" | "*=" | "/=" | "%=" as p) ->
      advance st;
      let op = String.sub p 0 1 in
      let rhs = parse_assign st in
      Jsast.Eassign (lhs, Jsast.Ebinop (op, lhs, rhs))
  | _ -> lhs

and parse_ternary st =
  let c = parse_binary st 1 in
  if is_punct st "?" then begin
    advance st;
    let a = parse_assign st in
    expect_punct st ":";
    let b = parse_assign st in
    Jsast.Econd (c, a, b)
  end
  else c

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let again = ref true in
  while !again do
    match peek st with
    | Jslex.PUNCT p when prec p >= min_prec ->
        advance st;
        let rhs = parse_binary st (prec p + 1) in
        lhs := Jsast.Ebinop (p, !lhs, rhs)
    | _ -> again := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Jslex.PUNCT "-" ->
      advance st;
      Jsast.Eunop ("-", parse_unary st)
  | Jslex.PUNCT "+" ->
      advance st;
      Jsast.Eunop ("+", parse_unary st)
  | Jslex.PUNCT "!" ->
      advance st;
      Jsast.Eunop ("!", parse_unary st)
  | Jslex.PUNCT "~" ->
      advance st;
      Jsast.Eunop ("~", parse_unary st)
  | Jslex.PUNCT "++" ->
      advance st;
      let e = parse_unary st in
      Jsast.Eassign (e, Jsast.Ebinop ("+", e, Jsast.Enum 1.0))
  | Jslex.PUNCT "--" ->
      advance st;
      let e = parse_unary st in
      Jsast.Eassign (e, Jsast.Ebinop ("-", e, Jsast.Enum 1.0))
  | Jslex.KW "typeof" ->
      advance st;
      Jsast.Etypeof (parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let again = ref true in
  while !again do
    match peek st with
    | Jslex.PUNCT "." -> (
        advance st;
        let name = ident st in
        if is_punct st "(" then begin
          advance st;
          let args = parse_args st in
          e := Jsast.Emethod (!e, name, args)
        end
        else e := Jsast.Eprop (!e, name))
    | Jslex.PUNCT "[" ->
        advance st;
        let idx = parse_expr st in
        expect_punct st "]";
        e := Jsast.Eindex (!e, idx)
    | Jslex.PUNCT "(" ->
        advance st;
        let args = parse_args st in
        e := Jsast.Ecall (!e, args)
    | Jslex.PUNCT "++" ->
        advance st;
        (* x++ as ((x = x+1) - 1) *)
        e := Jsast.Ebinop ("-", Jsast.Eassign (!e, Jsast.Ebinop ("+", !e, Jsast.Enum 1.0)), Jsast.Enum 1.0)
    | Jslex.PUNCT "--" ->
        advance st;
        e := Jsast.Ebinop ("+", Jsast.Eassign (!e, Jsast.Ebinop ("-", !e, Jsast.Enum 1.0)), Jsast.Enum 1.0)
    | _ -> again := false
  done;
  !e

and parse_args st =
  let args = ref [] in
  if not (is_punct st ")") then begin
    args := [ parse_expr st ];
    while is_punct st "," do
      advance st;
      args := parse_expr st :: !args
    done
  end;
  expect_punct st ")";
  List.rev !args

and parse_primary st =
  match peek st with
  | Jslex.NUM v ->
      advance st;
      Jsast.Enum v
  | Jslex.STR s ->
      advance st;
      Jsast.Estr s
  | Jslex.KW "true" ->
      advance st;
      Jsast.Ebool true
  | Jslex.KW "false" ->
      advance st;
      Jsast.Ebool false
  | Jslex.KW "null" ->
      advance st;
      Jsast.Enull
  | Jslex.KW "undefined" ->
      advance st;
      Jsast.Eundefined
  | Jslex.KW "new" ->
      (* tolerate "new X(...)" as a call *)
      advance st;
      parse_postfix st
  | Jslex.KW "function" ->
      advance st;
      (* anonymous or named function expression *)
      (match peek st with Jslex.IDENT _ -> ignore (ident st) | _ -> ());
      expect_punct st "(";
      let params = parse_params st in
      expect_punct st "{";
      let body = parse_function_body st in
      Jsast.Efun (params, body)
  | Jslex.IDENT name ->
      advance st;
      Jsast.Eident name
  | Jslex.PUNCT "(" ->
      advance st;
      let e = parse_expr st in
      expect_punct st ")";
      e
  | Jslex.PUNCT "[" ->
      advance st;
      let items = ref [] in
      if not (is_punct st "]") then begin
        items := [ parse_expr st ];
        while is_punct st "," do
          advance st;
          if not (is_punct st "]") then items := parse_expr st :: !items
        done
      end;
      expect_punct st "]";
      Jsast.Earray (List.rev !items)
  | Jslex.PUNCT "{" ->
      advance st;
      let fields = ref [] in
      if not (is_punct st "}") then begin
        let read_field () =
          let key =
            match peek st with
            | Jslex.IDENT k | Jslex.STR k ->
                advance st;
                k
            | other ->
                fail st (Printf.sprintf "expected property name, found %s" (Jslex.token_name other))
          in
          expect_punct st ":";
          (key, parse_expr st)
        in
        fields := [ read_field () ];
        while is_punct st "," do
          advance st;
          if not (is_punct st "}") then fields := read_field () :: !fields
        done
      end;
      expect_punct st "}";
      Jsast.Eobject (List.rev !fields)
  | other -> fail st (Printf.sprintf "expected expression, found %s" (Jslex.token_name other))

and parse_params st =
  let params = ref [] in
  if not (is_punct st ")") then begin
    params := [ ident st ];
    while is_punct st "," do
      advance st;
      params := ident st :: !params
    done
  end;
  expect_punct st ")";
  List.rev !params

(* a function body starts outside every loop *)
and parse_function_body st =
  let loops = st.loops in
  st.loops <- 0;
  let body = parse_block st in
  st.loops <- loops;
  body

and parse_loop_body st =
  st.loops <- st.loops + 1;
  let body = parse_body st in
  st.loops <- st.loops - 1;
  body

and parse_block st =
  let stmts = ref [] in
  while not (is_punct st "}") do
    if peek st = Jslex.EOF then fail st "unexpected end of input";
    stmts := parse_stmt st :: !stmts
  done;
  advance st;
  List.rev !stmts

and parse_stmt st : Jsast.stmt =
  match peek st with
  | Jslex.PUNCT "{" ->
      advance st;
      Jsast.Sblock (parse_block st)
  | Jslex.PUNCT ";" ->
      advance st;
      Jsast.Sblock []
  | Jslex.KW ("var" | "let" | "const") ->
      advance st;
      let name = ident st in
      let init =
        if is_punct st "=" then begin
          advance st;
          Some (parse_expr st)
        end
        else None
      in
      semi st;
      Jsast.Svar (name, init)
  | Jslex.KW "function" ->
      advance st;
      let name = ident st in
      expect_punct st "(";
      let params = parse_params st in
      expect_punct st "{";
      let body = parse_function_body st in
      Jsast.Sfundecl (name, params, body)
  | Jslex.KW "if" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let t = parse_body st in
      let f =
        if is_kw st "else" then begin
          advance st;
          parse_body st
        end
        else []
      in
      Jsast.Sif (c, t, f)
  | Jslex.KW "while" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      Jsast.Swhile (c, parse_loop_body st)
  | Jslex.KW "for" ->
      advance st;
      expect_punct st "(";
      let init =
        if is_punct st ";" then None
        else if is_kw st "var" || is_kw st "let" || is_kw st "const" then begin
          advance st;
          let name = ident st in
          let e =
            if is_punct st "=" then begin
              advance st;
              Some (parse_expr st)
            end
            else None
          in
          Some (Jsast.Svar (name, e))
        end
        else Some (Jsast.Sexpr (parse_expr st))
      in
      expect_punct st ";";
      let cond = if is_punct st ";" then None else Some (parse_expr st) in
      expect_punct st ";";
      let step = if is_punct st ")" then None else Some (parse_expr st) in
      expect_punct st ")";
      Jsast.Sfor (init, cond, step, parse_loop_body st)
  | Jslex.KW "throw" ->
      advance st;
      let e = parse_expr st in
      semi st;
      Jsast.Sthrow e
  | Jslex.KW "try" ->
      advance st;
      expect_punct st "{";
      let body = parse_block st in
      let catch =
        if is_kw st "catch" then begin
          advance st;
          let binding =
            if is_punct st "(" then begin
              advance st;
              let name = ident st in
              expect_punct st ")";
              name
            end
            else "__caught"
          in
          expect_punct st "{";
          Some (binding, parse_block st)
        end
        else None
      in
      let fin =
        if is_kw st "finally" then begin
          advance st;
          expect_punct st "{";
          parse_block st
        end
        else []
      in
      if catch = None && fin = [] then fail st "try requires catch or finally";
      Jsast.Stry (body, catch, fin)
  | Jslex.KW "return" ->
      advance st;
      let e = if is_punct st ";" || is_punct st "}" then None else Some (parse_expr st) in
      semi st;
      Jsast.Sreturn e
  | Jslex.KW ("break" | "continue" as kw) ->
      if st.loops = 0 then fail st (Printf.sprintf "illegal %s statement outside a loop" kw);
      advance st;
      semi st;
      if kw = "break" then Jsast.Sbreak else Jsast.Scontinue
  | _ ->
      let e = parse_expr st in
      semi st;
      Jsast.Sexpr e

and parse_body st =
  if is_punct st "{" then begin
    advance st;
    parse_block st
  end
  else [ parse_stmt st ]

(* semicolons are required except before '}' and EOF (mini-ASI) *)
and semi st =
  if is_punct st ";" then advance st
  else if is_punct st "}" || peek st = Jslex.EOF then ()
  else fail st (Printf.sprintf "expected ';', found %s" (Jslex.token_name (peek st)))

let parse tokens =
  let st = { toks = Array.of_list tokens; cur = 0; loops = 0 } in
  let stmts = ref [] in
  while peek st <> Jslex.EOF do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts
