exception Parse_error of { loc : Ast.loc; msg : string }

type state = { toks : (Lexer.token * Ast.loc) array; mutable cur : int }

let peek st = fst st.toks.(st.cur)
let peek_loc st = snd st.toks.(st.cur)

let peek2 st =
  if st.cur + 1 < Array.length st.toks then fst st.toks.(st.cur + 1) else Lexer.EOF

let advance st = if st.cur < Array.length st.toks - 1 then st.cur <- st.cur + 1

let fail st msg = raise (Parse_error { loc = peek_loc st; msg })

let expect st tok =
  if peek st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Lexer.token_name tok)
         (Lexer.token_name (peek st)))

let expect_ident st =
  match peek st with
  | Lexer.IDENT name ->
      advance st;
      name
  | other -> fail st (Printf.sprintf "expected identifier, found %s" (Lexer.token_name other))

let mk st desc : Ast.expr = { desc; loc = peek_loc st; ty = Ast.Tvoid }

(* ------------------------------------------------------------------ *)
(* Types                                                                *)
(* ------------------------------------------------------------------ *)

let is_type_start = function
  | Lexer.KW_INT | Lexer.KW_CHAR | Lexer.KW_VOID | Lexer.KW_LONG -> true
  | _ -> false

let parse_base_type st =
  match peek st with
  | Lexer.KW_INT ->
      advance st;
      Ast.Tint
  | Lexer.KW_LONG ->
      advance st;
      (* accept "long" and "long long" as int *)
      if peek st = Lexer.KW_LONG then advance st;
      if peek st = Lexer.KW_INT then advance st;
      Ast.Tint
  | Lexer.KW_CHAR ->
      advance st;
      Ast.Tchar
  | Lexer.KW_VOID ->
      advance st;
      Ast.Tvoid
  | other -> fail st (Printf.sprintf "expected type, found %s" (Lexer.token_name other))

let parse_type st =
  let base = parse_base_type st in
  let rec stars t = if peek st = Lexer.STAR then (advance st; stars (Ast.Tptr t)) else t in
  stars base

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                    *)
(* ------------------------------------------------------------------ *)

let binop_of_token : Lexer.token -> (Ast.binop * int) option = function
  | Lexer.STAR -> Some (Ast.Mul, 10)
  | Lexer.SLASH -> Some (Ast.Div, 10)
  | Lexer.PERCENT -> Some (Ast.Rem, 10)
  | Lexer.PLUS -> Some (Ast.Add, 9)
  | Lexer.MINUS -> Some (Ast.Sub, 9)
  | Lexer.SHL -> Some (Ast.Shl, 8)
  | Lexer.SHR -> Some (Ast.Shr, 8)
  | Lexer.LT -> Some (Ast.Lt, 7)
  | Lexer.LE -> Some (Ast.Le, 7)
  | Lexer.GT -> Some (Ast.Gt, 7)
  | Lexer.GE -> Some (Ast.Ge, 7)
  | Lexer.EQEQ -> Some (Ast.Eq, 6)
  | Lexer.NEQ -> Some (Ast.Ne, 6)
  | Lexer.AMP -> Some (Ast.Band, 5)
  | Lexer.CARET -> Some (Ast.Bxor, 4)
  | Lexer.PIPE -> Some (Ast.Bor, 3)
  | Lexer.ANDAND -> Some (Ast.Land, 2)
  | Lexer.OROR -> Some (Ast.Lor, 1)
  | _ -> None

let rec parse_expr st = parse_assign st

and parse_assign st =
  let lhs = parse_ternary st in
  match peek st with
  | Lexer.ASSIGN ->
      advance st;
      let rhs = parse_assign st in
      { lhs with Ast.desc = Ast.Assign (lhs, rhs); ty = Ast.Tvoid }
  | Lexer.PLUSEQ | Lexer.MINUSEQ | Lexer.STAREQ | Lexer.SLASHEQ ->
      let op =
        match peek st with
        | Lexer.PLUSEQ -> Ast.Add
        | Lexer.MINUSEQ -> Ast.Sub
        | Lexer.STAREQ -> Ast.Mul
        | Lexer.SLASHEQ -> Ast.Div
        | _ -> assert false
      in
      advance st;
      let rhs = parse_assign st in
      let combined = { lhs with Ast.desc = Ast.Binary (op, lhs, rhs); ty = Ast.Tvoid } in
      { lhs with Ast.desc = Ast.Assign (lhs, combined); ty = Ast.Tvoid }
  | _ -> lhs

and parse_ternary st =
  let c = parse_binary st 1 in
  if peek st = Lexer.QUESTION then begin
    advance st;
    let a = parse_assign st in
    expect st Lexer.COLON;
    let b = parse_assign st in
    { c with Ast.desc = Ast.Cond (c, a, b); ty = Ast.Tvoid }
  end
  else c

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match binop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := { !lhs with Ast.desc = Ast.Binary (op, !lhs, rhs); ty = Ast.Tvoid }
    | Some _ | None -> continue := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Lexer.MINUS ->
      advance st;
      let e = parse_unary st in
      mk st (Ast.Unary (Ast.Neg, e))
  | Lexer.BANG ->
      advance st;
      let e = parse_unary st in
      mk st (Ast.Unary (Ast.Lognot, e))
  | Lexer.TILDE ->
      advance st;
      let e = parse_unary st in
      mk st (Ast.Unary (Ast.Bitnot, e))
  | Lexer.STAR ->
      advance st;
      let e = parse_unary st in
      mk st (Ast.Unary (Ast.Deref, e))
  | Lexer.AMP ->
      advance st;
      let e = parse_unary st in
      mk st (Ast.Unary (Ast.Addrof, e))
  | Lexer.PLUSPLUS ->
      (* ++x desugars to (x = x + 1) *)
      advance st;
      let e = parse_unary st in
      let one = mk st (Ast.Int_lit 1L) in
      let inc = mk st (Ast.Binary (Ast.Add, e, one)) in
      mk st (Ast.Assign (e, inc))
  | Lexer.MINUSMINUS ->
      advance st;
      let e = parse_unary st in
      let one = mk st (Ast.Int_lit 1L) in
      let dec = mk st (Ast.Binary (Ast.Sub, e, one)) in
      mk st (Ast.Assign (e, dec))
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.LBRACKET ->
        advance st;
        let idx = parse_expr st in
        expect st Lexer.RBRACKET;
        e := { !e with Ast.desc = Ast.Index (!e, idx); ty = Ast.Tvoid }
    | Lexer.PLUSPLUS ->
        (* x++ desugared to ((x = x + 1) - 1): result is the old value *)
        advance st;
        let one = { !e with Ast.desc = Ast.Int_lit 1L; ty = Ast.Tvoid } in
        let inc = { !e with Ast.desc = Ast.Binary (Ast.Add, !e, one); ty = Ast.Tvoid } in
        let asg = { !e with Ast.desc = Ast.Assign (!e, inc); ty = Ast.Tvoid } in
        e := { !e with Ast.desc = Ast.Binary (Ast.Sub, asg, one); ty = Ast.Tvoid }
    | Lexer.MINUSMINUS ->
        advance st;
        let one = { !e with Ast.desc = Ast.Int_lit 1L; ty = Ast.Tvoid } in
        let dec = { !e with Ast.desc = Ast.Binary (Ast.Sub, !e, one); ty = Ast.Tvoid } in
        let asg = { !e with Ast.desc = Ast.Assign (!e, dec); ty = Ast.Tvoid } in
        e := { !e with Ast.desc = Ast.Binary (Ast.Add, asg, one); ty = Ast.Tvoid }
    | _ -> continue := false
  done;
  !e

and parse_primary st =
  match peek st with
  | Lexer.INT_LIT v ->
      let e = mk st (Ast.Int_lit v) in
      advance st;
      e
  | Lexer.CHAR_LIT c ->
      let e = mk st (Ast.Char_lit c) in
      advance st;
      e
  | Lexer.STR_LIT s ->
      let e = mk st (Ast.Str_lit s) in
      advance st;
      e
  | Lexer.IDENT name ->
      if peek2 st = Lexer.LPAREN then begin
        let loc = peek_loc st in
        advance st;
        advance st;
        let args = ref [] in
        if peek st <> Lexer.RPAREN then begin
          args := [ parse_expr st ];
          while peek st = Lexer.COMMA do
            advance st;
            args := parse_expr st :: !args
          done
        end;
        expect st Lexer.RPAREN;
        { Ast.desc = Ast.Call (name, List.rev !args); loc; ty = Ast.Tvoid }
      end
      else begin
        let e = mk st (Ast.Var name) in
        advance st;
        e
      end
  | Lexer.KW_SIZEOF ->
      advance st;
      expect st Lexer.LPAREN;
      let ty = parse_type st in
      (* sizeof(T[N]) *)
      let ty =
        if peek st = Lexer.LBRACKET then begin
          advance st;
          match peek st with
          | Lexer.INT_LIT n ->
              advance st;
              expect st Lexer.RBRACKET;
              Ast.Tarray (ty, Int64.to_int n)
          | _ -> fail st "expected array length in sizeof"
        end
        else ty
      in
      expect st Lexer.RPAREN;
      mk st (Ast.Int_lit (Int64.of_int (Ast.sizeof ty)))
  | Lexer.LPAREN ->
      advance st;
      (* parenthesized expression; also swallow C-style casts "(int)e" and
         "(char*)e" by re-parsing as the inner expression. *)
      if is_type_start (peek st) then begin
        let _ty = parse_type st in
        expect st Lexer.RPAREN;
        parse_unary st
      end
      else begin
        let e = parse_expr st in
        expect st Lexer.RPAREN;
        e
      end
  | other -> fail st (Printf.sprintf "expected expression, found %s" (Lexer.token_name other))

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

let rec parse_stmt st : Ast.stmt =
  match peek st with
  | Lexer.LBRACE ->
      advance st;
      let body = parse_stmts_until_rbrace st in
      Ast.Block body
  | Lexer.KW_IF ->
      advance st;
      expect st Lexer.LPAREN;
      let cond = parse_expr st in
      expect st Lexer.RPAREN;
      let then_ = parse_block_or_stmt st in
      let else_ =
        if peek st = Lexer.KW_ELSE then begin
          advance st;
          parse_block_or_stmt st
        end
        else []
      in
      Ast.If (cond, then_, else_)
  | Lexer.KW_WHILE ->
      advance st;
      expect st Lexer.LPAREN;
      let cond = parse_expr st in
      expect st Lexer.RPAREN;
      Ast.While (cond, parse_block_or_stmt st)
  | Lexer.KW_DO ->
      advance st;
      let body = parse_block_or_stmt st in
      (match peek st with
      | Lexer.KW_WHILE -> advance st
      | other -> fail st (Printf.sprintf "expected 'while', found %s" (Lexer.token_name other)));
      expect st Lexer.LPAREN;
      let cond = parse_expr st in
      expect st Lexer.RPAREN;
      expect st Lexer.SEMI;
      Ast.Dowhile (body, cond)
  | Lexer.KW_FOR ->
      advance st;
      expect st Lexer.LPAREN;
      let init =
        if peek st = Lexer.SEMI then None
        else if is_type_start (peek st) then Some (parse_decl st)
        else Some (Ast.Expr (parse_expr st))
      in
      expect st Lexer.SEMI;
      let cond = if peek st = Lexer.SEMI then None else Some (parse_expr st) in
      expect st Lexer.SEMI;
      let step = if peek st = Lexer.RPAREN then None else Some (parse_expr st) in
      expect st Lexer.RPAREN;
      Ast.For (init, cond, step, parse_block_or_stmt st)
  | Lexer.KW_RETURN ->
      let loc = peek_loc st in
      advance st;
      let e = if peek st = Lexer.SEMI then None else Some (parse_expr st) in
      expect st Lexer.SEMI;
      Ast.Return (e, loc)
  | Lexer.KW_BREAK ->
      let loc = peek_loc st in
      advance st;
      expect st Lexer.SEMI;
      Ast.Break loc
  | Lexer.KW_CONTINUE ->
      let loc = peek_loc st in
      advance st;
      expect st Lexer.SEMI;
      Ast.Continue loc
  | t when is_type_start t ->
      let d = parse_decl st in
      expect st Lexer.SEMI;
      d
  | _ ->
      let e = parse_expr st in
      expect st Lexer.SEMI;
      Ast.Expr e

and parse_decl st : Ast.stmt =
  let loc = peek_loc st in
  let ty = parse_type st in
  let name = expect_ident st in
  let ty =
    if peek st = Lexer.LBRACKET then begin
      advance st;
      match peek st with
      | Lexer.INT_LIT n ->
          advance st;
          expect st Lexer.RBRACKET;
          Ast.Tarray (ty, Int64.to_int n)
      | _ -> fail st "expected array length"
    end
    else ty
  in
  let init =
    if peek st = Lexer.ASSIGN then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  Ast.Decl (ty, name, init, loc)

and parse_block_or_stmt st =
  if peek st = Lexer.LBRACE then begin
    advance st;
    parse_stmts_until_rbrace st
  end
  else [ parse_stmt st ]

and parse_stmts_until_rbrace st =
  let acc = ref [] in
  while peek st <> Lexer.RBRACE do
    if peek st = Lexer.EOF then fail st "unexpected end of input in block";
    acc := parse_stmt st :: !acc
  done;
  advance st;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Top level                                                            *)
(* ------------------------------------------------------------------ *)

let parse_annotation st : Ast.annotation =
  match peek st with
  | Lexer.KW_VIRTINE ->
      advance st;
      Ast.Virtine
  | Lexer.KW_VIRTINE_PERMISSIVE ->
      advance st;
      Ast.Virtine_permissive
  | Lexer.KW_VIRTINE_CONFIG ->
      advance st;
      expect st Lexer.LPAREN;
      let mask =
        match peek st with
        | Lexer.INT_LIT v ->
            advance st;
            v
        | _ -> fail st "virtine_config expects an integer bitmask"
      in
      expect st Lexer.RPAREN;
      Ast.Virtine_config mask
  | _ -> Ast.Not_virtine

let parse_global_init st ty : Ast.init =
  match (peek st, ty) with
  | Lexer.LBRACE, _ ->
      advance st;
      let vals = ref [] in
      if peek st <> Lexer.RBRACE then begin
        let read_val () =
          match peek st with
          | Lexer.INT_LIT v ->
              advance st;
              v
          | Lexer.MINUS ->
              advance st;
              (match peek st with
              | Lexer.INT_LIT v ->
                  advance st;
                  Int64.neg v
              | _ -> fail st "expected integer in initializer")
          | Lexer.CHAR_LIT c ->
              advance st;
              Int64.of_int (Char.code c)
          | _ -> fail st "expected constant in array initializer"
        in
        vals := [ read_val () ];
        while peek st = Lexer.COMMA do
          advance st;
          if peek st <> Lexer.RBRACE then vals := read_val () :: !vals
        done
      end;
      expect st Lexer.RBRACE;
      Ast.Array_init (List.rev !vals)
  | Lexer.STR_LIT s, _ ->
      advance st;
      Ast.String_init s
  | Lexer.INT_LIT v, _ ->
      advance st;
      Ast.Scalar v
  | Lexer.MINUS, _ ->
      advance st;
      (match peek st with
      | Lexer.INT_LIT v ->
          advance st;
          Ast.Scalar (Int64.neg v)
      | _ -> fail st "expected integer")
  | Lexer.CHAR_LIT c, _ ->
      advance st;
      Ast.Scalar (Int64.of_int (Char.code c))
  | _ -> fail st "global initializers must be constants"

let parse_program st : Ast.program =
  let globals = ref [] and funcs = ref [] in
  while peek st <> Lexer.EOF do
    let loc = peek_loc st in
    let annot = parse_annotation st in
    let ty = parse_type st in
    let name = expect_ident st in
    match peek st with
    | Lexer.LPAREN ->
        advance st;
        let params = ref [] in
        if peek st <> Lexer.RPAREN then begin
          if peek st = Lexer.KW_VOID && peek2 st = Lexer.RPAREN then advance st
          else begin
            let read_param () =
              let pty = parse_type st in
              let pname = expect_ident st in
              (pty, pname)
            in
            params := [ read_param () ];
            while peek st = Lexer.COMMA do
              advance st;
              params := read_param () :: !params
            done
          end
        end;
        expect st Lexer.RPAREN;
        expect st Lexer.LBRACE;
        let body = parse_stmts_until_rbrace st in
        funcs :=
          {
            Ast.fname = name;
            annot;
            ret = ty;
            params = List.rev !params;
            body;
            floc = loc;
          }
          :: !funcs
    | _ ->
        if annot <> Ast.Not_virtine then fail st "virtine annotation on a non-function";
        let ty =
          if peek st = Lexer.LBRACKET then begin
            advance st;
            match peek st with
            | Lexer.INT_LIT n ->
                advance st;
                expect st Lexer.RBRACKET;
                Ast.Tarray (ty, Int64.to_int n)
            | _ -> fail st "expected array length"
          end
          else ty
        in
        let init =
          if peek st = Lexer.ASSIGN then begin
            advance st;
            Some (parse_global_init st ty)
          end
          else None
        in
        expect st Lexer.SEMI;
        globals := { Ast.gname = name; gty = ty; init; gloc = loc } :: !globals
  done;
  { Ast.globals = List.rev !globals; funcs = List.rev !funcs }

let parse src =
  let toks = Array.of_list (Lexer.tokenize src) in
  parse_program { toks; cur = 0 }

