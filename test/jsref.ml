(* The tree-walking evaluator vjs ran before it became a compiler, kept
   as the reference model of the differential tests in test_vjs: its
   lexer, its evaluator (a hash-table scope per block, loop iteration and
   call; every identifier looked up by name) and its engine entry points,
   with the same builtins and the same charges. Its hook is called once
   per node and once per explicit charge, the per-node reference for the
   compiled engine, which delivers nodes in batches at host boundaries.
   Only the parser is shared. A guest function here is a [Fun] whose
   [call] walks its body. *)

open Vjs
open Jsvalue

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let keywords =
  [
    "var"; "let"; "const"; "function"; "return"; "if"; "else"; "while"; "for";
    "true"; "false"; "null"; "undefined"; "break"; "continue"; "new"; "typeof";
    "try"; "catch"; "finally"; "throw";
  ]

(* longest match first *)
let puncts =
  [
    "==="; "!=="; "<<="; ">>=";
    "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>"; "+="; "-="; "*="; "/="; "%=";
    "++"; "--";
    "+"; "-"; "*"; "/"; "%"; "<"; ">"; "="; "("; ")"; "{"; "}"; "["; "]"; ";"; ",";
    "."; "?"; ":"; "!"; "&"; "|"; "^"; "~";
  ]

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let pos = ref 0 and line = ref 1 in
  let out = ref [] in
  let fail msg = raise (Jslex.Error { line = !line; msg }) in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let starts_with s =
    let l = String.length s in
    !pos + l <= n && String.sub src !pos l = s
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      incr pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if starts_with "//" then
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    else if starts_with "/*" then begin
      pos := !pos + 2;
      let closed = ref false in
      while (not !closed) && !pos < n do
        if src.[!pos] = '\n' then incr line;
        if starts_with "*/" then begin
          closed := true;
          pos := !pos + 2
        end
        else incr pos
      done;
      if not !closed then fail "unterminated comment"
    end
    else if is_digit c then begin
      let start = !pos in
      if starts_with "0x" || starts_with "0X" then begin
        pos := !pos + 2;
        while (match peek 0 with
               | Some c ->
                   is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
               | None -> false)
        do
          incr pos
        done;
        let text = String.sub src start (!pos - start) in
        match Int64.of_string_opt text with
        | Some v -> out := (Jslex.NUM (Int64.to_float v), !line) :: !out
        | None -> fail (Printf.sprintf "bad number %s" text)
      end
      else begin
        while (match peek 0 with Some c -> is_digit c | None -> false) do
          incr pos
        done;
        if peek 0 = Some '.' && (match peek 1 with Some c -> is_digit c | None -> false)
        then begin
          incr pos;
          while (match peek 0 with Some c -> is_digit c | None -> false) do
            incr pos
          done
        end;
        let text = String.sub src start (!pos - start) in
        match float_of_string_opt text with
        | Some v -> out := (NUM v, !line) :: !out
        | None -> fail (Printf.sprintf "bad number %s" text)
      end
    end
    else if is_ident_start c then begin
      let start = !pos in
      while (match peek 0 with Some c -> is_ident c | None -> false) do
        incr pos
      done;
      let text = String.sub src start (!pos - start) in
      if List.mem text keywords then out := (Jslex.KW text, !line) :: !out
      else out := (Jslex.IDENT text, !line) :: !out
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
      out := (Jslex.STR (Buffer.contents buf), !line) :: !out
    end
    else begin
      match List.find_opt starts_with puncts with
      | Some p ->
          pos := !pos + String.length p;
          out := (Jslex.PUNCT p, !line) :: !out
      | None -> fail (Printf.sprintf "unexpected character %C" c)
    end
  done;
  List.rev ((Jslex.EOF, !line) :: !out)

(* ------------------------------------------------------------------ *)
(* Evaluator                                                            *)
(* ------------------------------------------------------------------ *)

exception Return_exc of t
exception Break_exc
exception Continue_exc
exception Throw_exc of t

type interp = { charge : int -> unit; mutable steps : int; max_steps : int }

(* scopes: a hash table per block, loop iteration and call *)
type env = { tbl : (string, t ref) Hashtbl.t; parent : env option }

let env_create parent = { tbl = Hashtbl.create 8; parent }
let env_define env name v = Hashtbl.replace env.tbl name (ref v)

let rec env_lookup env name =
  match Hashtbl.find_opt env.tbl name with
  | Some r -> Some r
  | None -> ( match env.parent with Some p -> env_lookup p name | None -> None)

let cost_per_node = 22

let tick it =
  it.steps <- it.steps + 1;
  if it.steps > it.max_steps then raise (Js_error "script step budget exceeded");
  it.charge cost_per_node

let js_fail fmt = Printf.ksprintf (fun s -> raise (Js_error s)) fmt

(* builtin methods dispatched on the receiver kind *)
let string_method it recv name args =
  let arg n = match List.nth_opt args n with Some v -> v | None -> Undefined in
  let num n = int_of_float (to_number (arg n)) in
  match name with
  | "charCodeAt" ->
      let i = num 0 in
      if i < 0 || i >= String.length recv then Num Float.nan
      else Num (float_of_int (Char.code recv.[i]))
  | "charAt" ->
      let i = num 0 in
      if i < 0 || i >= String.length recv then Str "" else Str (String.make 1 recv.[i])
  | "indexOf" -> (
      let needle = to_string (arg 0) in
      let hay = recv in
      let nh = String.length hay and nn = String.length needle in
      let rec go i = if i + nn > nh then -1 else if String.sub hay i nn = needle then i else go (i + 1) in
      match go 0 with i -> Num (float_of_int i))
  | "substring" ->
      let a = max 0 (min (String.length recv) (num 0)) in
      let b =
        match List.nth_opt args 1 with
        | Some v -> max 0 (min (String.length recv) (int_of_float (to_number v)))
        | None -> String.length recv
      in
      let lo = min a b and hi = max a b in
      Str (String.sub recv lo (hi - lo))
  | "slice" ->
      let n = String.length recv in
      let norm i = if i < 0 then max 0 (n + i) else min n i in
      let a = norm (num 0) in
      let b = match List.nth_opt args 1 with Some v -> norm (int_of_float (to_number v)) | None -> n in
      if a >= b then Str "" else Str (String.sub recv a (b - a))
  | "toUpperCase" -> Str (String.uppercase_ascii recv)
  | "toLowerCase" -> Str (String.lowercase_ascii recv)
  | "split" ->
      let sep = to_string (arg 0) in
      if sep = "" then
        Arr (vec_of_list (List.init (String.length recv) (fun i -> Str (String.make 1 recv.[i]))))
      else begin
        let parts = ref [] and start = ref 0 in
        let nh = String.length recv and nn = String.length sep in
        let i = ref 0 in
        while !i + nn <= nh do
          if String.sub recv !i nn = sep then begin
            parts := String.sub recv !start (!i - !start) :: !parts;
            i := !i + nn;
            start := !i
          end
          else incr i
        done;
        parts := String.sub recv !start (nh - !start) :: !parts;
        ignore it;
        Arr (vec_of_list (List.rev_map (fun s -> Str s) !parts))
      end
  | _ -> js_fail "string has no method %s" name

let rec array_method it recv name args =
  match name with
  | "map" -> (
      match args with
      | f :: _ ->
          Arr (vec_of_list (List.map (fun x -> call it f [ x ]) (vec_to_list recv)))
      | [] -> js_fail "map expects a function")
  | "filter" -> (
      match args with
      | f :: _ ->
          Arr (vec_of_list (List.filter (fun x -> truthy (call it f [ x ])) (vec_to_list recv)))
      | [] -> js_fail "filter expects a function")
  | "forEach" -> (
      match args with
      | f :: _ ->
          List.iter (fun x -> ignore (call it f [ x ])) (vec_to_list recv);
          Undefined
      | [] -> js_fail "forEach expects a function")
  | "reduce" -> (
      match args with
      | f :: rest ->
          let items = vec_to_list recv in
          let init, items =
            match (rest, items) with
            | seed :: _, _ -> (seed, items)
            | [], x :: xs -> (x, xs)
            | [], [] -> js_fail "reduce of empty array with no initial value"
          in
          List.fold_left (fun acc x -> call it f [ acc; x ]) init items
      | [] -> js_fail "reduce expects a function")
  | "concat" -> (
      match args with
      | Arr other :: _ -> Arr (vec_of_list (vec_to_list recv @ vec_to_list other))
      | v :: _ -> Arr (vec_of_list (vec_to_list recv @ [ v ]))
      | [] -> Arr (vec_of_list (vec_to_list recv)))
  | "reverse" ->
      let items = List.rev (vec_to_list recv) in
      List.iteri (fun i x -> vec_set recv i x) items;
      Arr recv
  | "push" ->
      List.iter (vec_push recv) args;
      Num (float_of_int recv.len)
  | "pop" -> vec_pop recv
  | "join" ->
      let sep = match args with v :: _ -> to_string v | [] -> "," in
      Str (String.concat sep (List.map to_string (vec_to_list recv)))
  | "indexOf" ->
      let target = match args with v :: _ -> v | [] -> Undefined in
      let rec go i =
        if i >= recv.len then -1
        else if strict_equal (vec_get recv i) target then i
        else go (i + 1)
      in
      Num (float_of_int (go 0))
  | "slice" ->
      let n = recv.len in
      let norm v = let i = int_of_float (to_number v) in if i < 0 then max 0 (n + i) else min n i in
      let a = match args with v :: _ -> norm v | [] -> 0 in
      let b = match args with _ :: v :: _ -> norm v | _ -> n in
      Arr (vec_of_list (List.filteri (fun i _ -> i >= a && i < b) (vec_to_list recv)))
  | _ -> js_fail "array has no method %s" name

and eval_expr it env (e : Jsast.expr) : t =
  tick it;
  match e with
  | Jsast.Enum n -> Num n
  | Jsast.Estr s -> Str s
  | Jsast.Ebool b -> Bool b
  | Jsast.Enull -> Null
  | Jsast.Eundefined -> Undefined
  | Jsast.Eident name -> (
      match env_lookup env name with
      | Some r -> !r
      | None -> js_fail "ReferenceError: %s is not defined" name)
  | Jsast.Earray items -> Arr (vec_of_list (List.map (eval_expr it env) items))
  | Jsast.Eobject fields ->
      let tbl = Hashtbl.create 8 in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k (eval_expr it env v)) fields;
      Obj tbl
  | Jsast.Efun (params, body) -> make_fun it params body env "anonymous"
  | Jsast.Ecall (f, args) ->
      let fv = eval_expr it env f in
      let argv = List.map (eval_expr it env) args in
      call it fv argv
  | Jsast.Emethod (recv, name, args) -> (
      let rv = eval_expr it env recv in
      let argv = List.map (eval_expr it env) args in
      match rv with
      | Str s -> string_method it s name argv
      | Arr v -> array_method it v name argv
      | Obj tbl -> (
          match Hashtbl.find_opt tbl name with
          | Some fv -> call it fv argv
          | None -> js_fail "object has no method %s" name)
      | other -> js_fail "%s has no method %s" (type_name other) name)
  | Jsast.Eprop (recv, name) -> (
      let rv = eval_expr it env recv in
      match (rv, name) with
      | Str s, "length" -> Num (float_of_int (String.length s))
      | Arr v, "length" -> Num (float_of_int v.len)
      | Obj tbl, _ -> (
          match Hashtbl.find_opt tbl name with Some v -> v | None -> Undefined)
      | _ -> js_fail "cannot read property %s of %s" name (type_name rv))
  | Jsast.Eindex (recv, idx) -> (
      let rv = eval_expr it env recv in
      let iv = eval_expr it env idx in
      match rv with
      | Arr v -> vec_get v (int_of_float (to_number iv))
      | Str s ->
          let i = int_of_float (to_number iv) in
          if i < 0 || i >= String.length s then Undefined else Str (String.make 1 s.[i])
      | Obj tbl -> (
          match Hashtbl.find_opt tbl (to_string iv) with Some v -> v | None -> Undefined)
      | _ -> js_fail "cannot index %s" (type_name rv))
  | Jsast.Eunop (op, a) -> (
      let v = eval_expr it env a in
      match op with
      | "-" -> Num (-.to_number v)
      | "+" -> Num (to_number v)
      | "!" -> Bool (not (truthy v))
      | "~" -> Num (Int32.to_float (Int32.lognot (to_int32 v)))
      | _ -> js_fail "unknown unary %s" op)
  | Jsast.Ebinop (op, a, b) -> eval_binop it env op a b
  | Jsast.Eassign (target, value) -> (
      let v = eval_expr it env value in
      (match target with
      | Jsast.Eident name -> (
          match env_lookup env name with
          | Some r -> r := v
          | None ->
              (* implicit global, as in sloppy-mode JS *)
              let rec top e = match e.parent with Some p -> top p | None -> e in
              env_define (top env) name v)
      | Jsast.Eindex (recv, idx) -> (
          let rv = eval_expr it env recv in
          let iv = eval_expr it env idx in
          match rv with
          | Arr vec -> vec_set vec (int_of_float (to_number iv)) v
          | Obj tbl -> Hashtbl.replace tbl (to_string iv) v
          | _ -> js_fail "cannot index-assign %s" (type_name rv))
      | Jsast.Eprop (recv, name) -> (
          let rv = eval_expr it env recv in
          match rv with
          | Obj tbl -> Hashtbl.replace tbl name v
          | _ -> js_fail "cannot set property %s of %s" name (type_name rv))
      | _ -> js_fail "invalid assignment target");
      v)
  | Jsast.Econd (c, a, b) ->
      if truthy (eval_expr it env c) then eval_expr it env a else eval_expr it env b
  | Jsast.Etypeof (Jsast.Eident name) -> (
      match env_lookup env name with
      | Some r -> Str (type_name !r)
      | None -> Str "undefined")
  | Jsast.Etypeof e -> Str (type_name (eval_expr it env e))

and eval_binop it env op a b =
  match op with
  | "&&" ->
      let va = eval_expr it env a in
      if truthy va then eval_expr it env b else va
  | "||" ->
      let va = eval_expr it env a in
      if truthy va then va else eval_expr it env b
  | _ -> (
      let va = eval_expr it env a in
      let vb = eval_expr it env b in
      match op with
      | "+" -> (
          match (va, vb) with
          | Str _, _ | _, Str _ ->
              let x = to_string va and y = to_string vb in
              if String.length x + String.length y > max_length then
                js_fail "RangeError: invalid string length";
              Str (x ^ y)
          | _ -> Num (to_number va +. to_number vb))
      | "-" -> Num (to_number va -. to_number vb)
      | "*" -> Num (to_number va *. to_number vb)
      | "/" -> Num (to_number va /. to_number vb)
      | "%" -> Num (Float.rem (to_number va) (to_number vb))
      | "<" -> compare_values va vb ( < ) ( < )
      | "<=" -> compare_values va vb ( <= ) ( <= )
      | ">" -> compare_values va vb ( > ) ( > )
      | ">=" -> compare_values va vb ( >= ) ( >= )
      | "==" -> Bool (loose_equal va vb)
      | "!=" -> Bool (not (loose_equal va vb))
      | "===" -> Bool (strict_equal va vb)
      | "!==" -> Bool (not (strict_equal va vb))
      | "&" -> Num (Int32.to_float (Int32.logand (to_int32 va) (to_int32 vb)))
      | "|" -> Num (Int32.to_float (Int32.logor (to_int32 va) (to_int32 vb)))
      | "^" -> Num (Int32.to_float (Int32.logxor (to_int32 va) (to_int32 vb)))
      | "<<" ->
          Num (Int32.to_float (Int32.shift_left (to_int32 va) (Int32.to_int (to_int32 vb) land 31)))
      | ">>" ->
          Num (Int32.to_float (Int32.shift_right (to_int32 va) (Int32.to_int (to_int32 vb) land 31)))
      | _ -> js_fail "unknown operator %s" op)

and compare_values a b numcmp strcmp =
  match (a, b) with
  | Str x, Str y -> Bool (strcmp x y)
  | _ -> Bool (numcmp (to_number a) (to_number b))

and call _it fv argv =
  match fv with
  | Fun f -> f.call argv
  | Native (_, f) -> f argv
  | other -> js_fail "%s is not a function" (type_name other)

and make_fun it params body env fname =
  Fun
    {
      fname;
      call =
        (fun argv ->
          let fenv = env_create (Some env) in
          let rec bind params args =
            match (params, args) with
            | [], _ -> ()
            | p :: ps, [] ->
                env_define fenv p Undefined;
                bind ps []
            | p :: ps, a :: rest ->
                env_define fenv p a;
                bind ps rest
          in
          bind params argv;
          try
            exec_stmts it fenv body;
            Undefined
          with Return_exc v -> v);
    }

and exec_stmt it env (s : Jsast.stmt) : unit =
  tick it;
  match s with
  | Jsast.Sexpr e -> ignore (eval_expr it env e)
  | Jsast.Svar (name, init) ->
      let v = match init with Some e -> eval_expr it env e | None -> Undefined in
      env_define env name v
  | Jsast.Sif (c, t, f) ->
      if truthy (eval_expr it env c) then exec_stmts it (env_create (Some env)) t
      else exec_stmts it (env_create (Some env)) f
  | Jsast.Swhile (c, body) -> (
      try
        while truthy (eval_expr it env c) do
          try exec_stmts it (env_create (Some env)) body with Continue_exc -> ()
        done
      with Break_exc -> ())
  | Jsast.Sfor (init, cond, step, body) -> (
      let fenv = env_create (Some env) in
      (match init with Some s -> exec_stmt it fenv s | None -> ());
      let check () = match cond with Some c -> truthy (eval_expr it fenv c) | None -> true in
      try
        while check () do
          (try exec_stmts it (env_create (Some fenv)) body with Continue_exc -> ());
          match step with Some e -> ignore (eval_expr it fenv e) | None -> ()
        done
      with Break_exc -> ())
  | Jsast.Sreturn e ->
      raise (Return_exc (match e with Some e -> eval_expr it env e | None -> Undefined))
  | Jsast.Sbreak -> raise Break_exc
  | Jsast.Scontinue -> raise Continue_exc
  | Jsast.Sfundecl (name, params, body) ->
      env_define env name (make_fun it params body env name)
  | Jsast.Sblock body -> exec_stmts it (env_create (Some env)) body
  | Jsast.Sthrow e -> raise (Throw_exc (eval_expr it env e))
  | Jsast.Stry (body, catch, fin) ->
      let run_finally () = exec_stmts it (env_create (Some env)) fin in
      (try
         (try exec_stmts it (env_create (Some env)) body with
         | Throw_exc v -> (
             match catch with
             | Some (binding, cbody) ->
                 let cenv = env_create (Some env) in
                 env_define cenv binding v;
                 exec_stmts it cenv cbody
             | None -> raise (Throw_exc v))
         | Js_error msg -> (
             (* runtime errors are catchable, surfaced as strings *)
             match catch with
             | Some (binding, cbody) ->
                 let cenv = env_create (Some env) in
                 env_define cenv binding (Str msg);
                 exec_stmts it cenv cbody
             | None -> raise (Js_error msg)))
       with e ->
         run_finally ();
         raise e);
      run_finally ()

and exec_stmts it env stmts = List.iter (exec_stmt it env) stmts

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

type engine = { globals : env; interp : interp; console : Buffer.t }

let num_method name f = Native (name, fun args ->
    match args with
    | v :: _ -> Num (f (to_number v))
    | [] -> Num Float.nan)

let install_builtins (t : engine) =
  let math = Hashtbl.create 8 in
  Hashtbl.replace math "floor" (num_method "floor" Float.floor);
  Hashtbl.replace math "ceil" (num_method "ceil" Float.ceil);
  Hashtbl.replace math "abs" (num_method "abs" Float.abs);
  Hashtbl.replace math "sqrt" (num_method "sqrt" Float.sqrt);
  Hashtbl.replace math "min"
    (Native ("min", fun args -> Num (List.fold_left (fun acc v -> min acc (to_number v)) Float.infinity args)));
  Hashtbl.replace math "max"
    (Native ("max", fun args -> Num (List.fold_left (fun acc v -> max acc (to_number v)) Float.neg_infinity args)));
  Hashtbl.replace math "pow"
    (Native ("pow", fun args ->
         match args with
         | a :: b :: _ -> Num (Float.pow (to_number a) (to_number b))
         | _ -> Num Float.nan));
  Hashtbl.replace math "PI" (Num Float.pi);
  env_define t.globals "Math" (Obj math);
  let string_obj = Hashtbl.create 4 in
  Hashtbl.replace string_obj "fromCharCode"
    (Native ("fromCharCode", fun args ->
         Str (String.concat ""
                (List.map (fun v -> String.make 1 (Char.chr (int_of_float (to_number v) land 0xFF))) args))));
  env_define t.globals "String" (Obj string_obj);
  env_define t.globals "parseInt"
    (Native ("parseInt", fun args ->
         match args with
         | v :: _ -> (
             let s = String.trim (to_string v) in
             (* parse the longest valid integer prefix *)
             let n = String.length s in
             let stop = ref 0 in
             let start = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
             stop := start;
             while !stop < n && s.[!stop] >= '0' && s.[!stop] <= '9' do
               incr stop
             done;
             if !stop = start then Num Float.nan
             else
               match int_of_string_opt (String.sub s 0 !stop) with
               | Some i -> Num (float_of_int i)
               | None -> Num Float.nan)
         | [] -> Num Float.nan));
    let json = Hashtbl.create 2 in
  Hashtbl.replace json "stringify"
    (Native ("stringify", fun args ->
         match args with v :: _ -> Str (Json.stringify v) | [] -> Str "null"));
  Hashtbl.replace json "parse"
    (Native ("parse", fun args ->
         match args with
         | v :: _ -> Json.parse (to_string v)
         | [] -> raise (Js_error "JSON.parse: missing argument")));
  env_define t.globals "JSON" (Obj json);
  let print_fn =
    Native ("print", fun args ->
        Buffer.add_string t.console (String.concat " " (List.map to_string args));
        Buffer.add_char t.console '\n';
        Undefined)
  in
  env_define t.globals "print" print_fn;
  env_define t.globals "console_log" print_fn

let create ?(charge = fun _ -> ()) ?(max_steps = 5_000_000) () =
  let t =
    { globals = env_create None; interp = { charge; steps = 0; max_steps }; console = Buffer.create 64 }
  in
  charge Engine.context_alloc_cycles;
  install_builtins t;
  charge Engine.binding_cycles;
  t

let register t name f = env_define t.globals name (Native (name, f))
let steps t = t.interp.steps
let console_output t = Buffer.contents t.console

let eval t src =
  t.interp.steps <- 0;
  match tokenize src with
  | exception Jslex.Error { line; msg } -> Error (Printf.sprintf "SyntaxError (line %d): %s" line msg)
  | toks -> (
      t.interp.charge (List.length toks * Engine.parse_cycles_per_token);
      match Jsparse.parse toks with
      | exception Jsparse.Error { line; msg } ->
          Error (Printf.sprintf "SyntaxError (line %d): %s" line msg)
      | prog -> (
          (* value of the last expression statement, REPL-style *)
          let result = ref Undefined in
          let run () =
            List.iter
              (fun s ->
                match s with
                | Jsast.Sfundecl (name, params, body) ->
                    env_define t.globals name (make_fun t.interp params body t.globals name)
                | _ -> ())
              prog;
            List.iter
              (fun s ->
                match s with
                | Jsast.Sfundecl _ -> ()
                | Jsast.Sexpr e -> result := eval_expr t.interp t.globals e
                | s -> exec_stmt t.interp t.globals s)
              prog
          in
          match run () with
          | () -> Ok !result
          | exception Js_error msg -> Error msg
          | exception Throw_exc v -> Error ("uncaught: " ^ to_string v)
          | exception Return_exc _ -> Error "return outside function"))

let call t name args =
  t.interp.steps <- 0;
  match env_lookup t.globals name with
  | None -> Error (Printf.sprintf "ReferenceError: %s is not defined" name)
  | Some fv -> (
      match call t.interp !fv args with
      | v -> Ok v
      | exception Js_error msg -> Error msg
      | exception Throw_exc v -> Error ("uncaught: " ^ to_string v))
