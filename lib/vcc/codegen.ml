exception Codegen_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Codegen_error s)) fmt

let global_label name = "g_" ^ name
let function_label name = "fn_" ^ name

let label_counter = ref 0

let fresh_label prefix =
  incr label_counter;
  Printf.sprintf ".L%s%d" prefix !label_counter

(* width of a memory access for a value of this type *)
let access_width : Ast.ty -> Instr.width = function
  | Ast.Tchar -> Instr.W8
  | Ast.Tint | Ast.Tptr _ | Ast.Tarray _ | Ast.Tvoid -> Instr.W64

let elem_size = function
  | Ast.Tptr t -> Ast.sizeof t
  | Ast.Tarray (t, _) -> Ast.sizeof t
  | Ast.Tint | Ast.Tchar | Ast.Tvoid -> 1

type frame = {
  slots : (string, int) Hashtbl.t list ref;  (** scope stack: name -> fp offset *)
  mutable next_offset : int;                  (** bytes allocated so far *)
  frame_size : int;
  epilogue : string;
  mutable loop_labels : (string * string) list;  (** (break, continue) *)
}

let push_scope fr = fr.slots := Hashtbl.create 8 :: !(fr.slots)
let pop_scope fr = fr.slots := List.tl !(fr.slots)

let declare_slot fr name size =
  let aligned = (size + 7) land lnot 7 in
  fr.next_offset <- fr.next_offset + aligned;
  if fr.next_offset > fr.frame_size then fail "frame overflow for %s" name;
  (match !(fr.slots) with
  | scope :: _ -> Hashtbl.replace scope name fr.next_offset
  | [] -> fail "no scope");
  fr.next_offset

let lookup_slot fr name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match Hashtbl.find_opt scope name with Some o -> Some o | None -> go rest)
  in
  go !(fr.slots)

(* pre-scan: total bytes of locals (params + every declaration site) *)
let rec stmt_frame_bytes (s : Ast.stmt) =
  match s with
  | Ast.Decl (ty, _, _, _) -> (Ast.sizeof ty + 7) land lnot 7
  | Ast.If (_, t, f) -> List.fold_left (fun a s -> a + stmt_frame_bytes s) 0 (t @ f)
  | Ast.While (_, b) | Ast.Dowhile (b, _) | Ast.Block b ->
      List.fold_left (fun a s -> a + stmt_frame_bytes s) 0 b
  | Ast.For (init, _, _, b) ->
      (match init with Some s -> stmt_frame_bytes s | None -> 0)
      + List.fold_left (fun a s -> a + stmt_frame_bytes s) 0 b
  | Ast.Expr _ | Ast.Return _ | Ast.Break _ | Ast.Continue _ -> 0

let func_frame_bytes (f : Ast.func) =
  List.fold_left (fun a (ty, _) -> a + ((Ast.sizeof ty + 7) land lnot 7)) 0 f.params
  + List.fold_left (fun a s -> a + stmt_frame_bytes s) 0 f.body

(* emission buffer *)
type emitter = { mutable items : Asm.item list }

let emit em i = em.items <- Asm.Insn i :: em.items
let emit_label em l = em.items <- Asm.Label l :: em.items

open Asm

let r0 = 0
let r1 = 1
let fp = 13

(* string literals are pooled per image *)
type strings = { mutable pool : (string * string) list (* label, contents *) }

let string_label strings s =
  match List.find_opt (fun (_, c) -> c = s) strings.pool with
  | Some (l, _) -> l
  | None ->
      let l = fresh_label "str" in
      strings.pool <- (l, s) :: strings.pool;
      l

type ctx = {
  prog : Ast.program;
  em : emitter;
  fr : frame;
  strings : strings;
  global_names : string list;
}

(* leave the address of an lvalue in r0 *)
let rec gen_addr ctx (e : Ast.expr) =
  match e.desc with
  | Ast.Var name -> (
      match lookup_slot ctx.fr name with
      | Some off -> emit ctx.em (SLea (r0, fp, -off))
      | None ->
          if List.mem name ctx.global_names then
            emit ctx.em (SMov (r0, OLbl (global_label name)))
          else fail "codegen: unknown variable %s" name)
  | Ast.Unary (Ast.Deref, p) -> gen_expr ctx p
  | Ast.Index (a, i) ->
      let size = elem_size a.Ast.ty in
      gen_expr ctx a;
      (* a decays to a pointer value *)
      emit ctx.em (SPush (OReg r0));
      gen_expr ctx i;
      if size <> 1 then emit ctx.em (SBin (Instr.Mul, r0, OImm (Int64.of_int size)));
      emit ctx.em (SPop r1);
      emit ctx.em (SBin (Instr.Add, r0, OReg r1))
  | _ -> fail "codegen: not an lvalue"

(* evaluate an expression into r0 *)
and gen_expr ctx (e : Ast.expr) =
  match e.desc with
  | Ast.Int_lit v -> emit ctx.em (SMov (r0, OImm v))
  | Ast.Char_lit c -> emit ctx.em (SMov (r0, OImm (Int64.of_int (Char.code c))))
  | Ast.Str_lit s -> emit ctx.em (SMov (r0, OLbl (string_label ctx.strings s)))
  | Ast.Var name -> (
      match e.ty with
      | Ast.Tarray _ ->
          (* arrays decay to their address *)
          gen_addr_of_array ctx name
      | ty ->
          gen_addr ctx e;
          emit ctx.em (SMov (r1, OReg r0));
          emit ctx.em (SLoad (access_width ty, r0, r1, 0)))
  | Ast.Unary (Ast.Neg, a) ->
      gen_expr ctx a;
      emit ctx.em (SNeg r0)
  | Ast.Unary (Ast.Bitnot, a) ->
      gen_expr ctx a;
      emit ctx.em (SNot r0)
  | Ast.Unary (Ast.Lognot, a) ->
      gen_expr ctx a;
      let l = fresh_label "not" in
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SMov (r0, OImm 1L));
      emit ctx.em (SJcc (Instr.Eq, Lbl l));
      emit ctx.em (SMov (r0, OImm 0L));
      emit_label ctx.em l
  | Ast.Unary (Ast.Deref, p) ->
      gen_expr ctx p;
      emit ctx.em (SMov (r1, OReg r0));
      emit ctx.em (SLoad (access_width e.ty, r0, r1, 0))
  | Ast.Unary (Ast.Addrof, a) -> gen_addr_or_array ctx a
  | Ast.Binary (op, a, b) -> gen_binary ctx e.ty op a b
  | Ast.Assign (lhs, rhs) ->
      gen_expr ctx rhs;
      emit ctx.em (SPush (OReg r0));
      gen_addr ctx lhs;
      emit ctx.em (SMov (r1, OReg r0));
      emit ctx.em (SPop r0);
      emit ctx.em (SStore (access_width lhs.Ast.ty, r1, 0, OReg r0))
      (* result: the assigned value, already in r0 *)
  | Ast.Call (name, args) -> gen_call ctx name args
  | Ast.Index (a, i) ->
      gen_addr ctx { e with desc = Ast.Index (a, i) };
      emit ctx.em (SMov (r1, OReg r0));
      emit ctx.em (SLoad (access_width e.ty, r0, r1, 0))
  | Ast.Cond (c, a, b) ->
      let lfalse = fresh_label "celse" and lend = fresh_label "cend" in
      gen_expr ctx c;
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SJcc (Instr.Eq, Lbl lfalse));
      gen_expr ctx a;
      emit ctx.em (SJmp (Lbl lend));
      emit_label ctx.em lfalse;
      gen_expr ctx b;
      emit_label ctx.em lend

and gen_addr_of_array ctx name =
  match lookup_slot ctx.fr name with
  | Some off -> emit ctx.em (SLea (r0, fp, -off))
  | None ->
      if List.mem name ctx.global_names then
        emit ctx.em (SMov (r0, OLbl (global_label name)))
      else fail "codegen: unknown array %s" name

and gen_addr_or_array ctx (a : Ast.expr) =
  match (a.desc, a.ty) with
  | Ast.Var name, Ast.Tarray _ -> gen_addr_of_array ctx name
  | _ -> gen_addr ctx a

and gen_binary ctx _ty op a b =
  match op with
  | Ast.Land ->
      let lfalse = fresh_label "andf" and lend = fresh_label "ande" in
      gen_expr ctx a;
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SJcc (Instr.Eq, Lbl lfalse));
      gen_expr ctx b;
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SJcc (Instr.Eq, Lbl lfalse));
      emit ctx.em (SMov (r0, OImm 1L));
      emit ctx.em (SJmp (Lbl lend));
      emit_label ctx.em lfalse;
      emit ctx.em (SMov (r0, OImm 0L));
      emit_label ctx.em lend
  | Ast.Lor ->
      let ltrue = fresh_label "ort" and lend = fresh_label "ore" in
      gen_expr ctx a;
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SJcc (Instr.Ne, Lbl ltrue));
      gen_expr ctx b;
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SJcc (Instr.Ne, Lbl ltrue));
      emit ctx.em (SMov (r0, OImm 0L));
      emit ctx.em (SJmp (Lbl lend));
      emit_label ctx.em ltrue;
      emit ctx.em (SMov (r0, OImm 1L));
      emit_label ctx.em lend
  | _ ->
      (* pointer arithmetic scaling (C semantics) *)
      let a_ptr = match a.Ast.ty with Ast.Tptr _ | Ast.Tarray _ -> true | _ -> false in
      let b_ptr = match b.Ast.ty with Ast.Tptr _ | Ast.Tarray _ -> true | _ -> false in
      gen_expr ctx a;
      (if a_ptr && (not b_ptr) && (op = Ast.Add || op = Ast.Sub) then begin
         let sz = elem_size a.Ast.ty in
         emit ctx.em (SPush (OReg r0));
         gen_expr ctx b;
         if sz <> 1 then emit ctx.em (SBin (Instr.Mul, r0, OImm (Int64.of_int sz)));
         emit ctx.em (SMov (r1, OReg r0));
         emit ctx.em (SPop r0)
       end
       else if b_ptr && (not a_ptr) && op = Ast.Add then begin
         (* int + ptr: scale the int side (currently in r0) *)
         let sz = elem_size b.Ast.ty in
         if sz <> 1 then emit ctx.em (SBin (Instr.Mul, r0, OImm (Int64.of_int sz)));
         emit ctx.em (SPush (OReg r0));
         gen_expr ctx b;
         emit ctx.em (SMov (r1, OReg r0));
         emit ctx.em (SPop r0)
       end
       else begin
         emit ctx.em (SPush (OReg r0));
         gen_expr ctx b;
         emit ctx.em (SMov (r1, OReg r0));
         emit ctx.em (SPop r0)
       end);
      (* r0 = a(scaled appropriately), r1 = b *)
      let simple instr_op = emit ctx.em (SBin (instr_op, r0, OReg r1)) in
      (match op with
      | Ast.Add -> simple Instr.Add
      | Ast.Sub ->
          simple Instr.Sub;
          if a_ptr && b_ptr then begin
            let sz = elem_size a.Ast.ty in
            if sz <> 1 then emit ctx.em (SBin (Instr.Div, r0, OImm (Int64.of_int sz)))
          end
      | Ast.Mul -> simple Instr.Mul
      | Ast.Div -> simple Instr.Div
      | Ast.Rem -> simple Instr.Rem
      | Ast.Band -> simple Instr.And
      | Ast.Bor -> simple Instr.Or
      | Ast.Bxor -> simple Instr.Xor
      | Ast.Shl -> simple Instr.Shl
      | Ast.Shr -> simple Instr.Shr
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
          let cond : Instr.cond =
            match op with
            | Ast.Lt -> Instr.Lt
            | Ast.Le -> Instr.Le
            | Ast.Gt -> Instr.Gt
            | Ast.Ge -> Instr.Ge
            | Ast.Eq -> Instr.Eq
            | Ast.Ne -> Instr.Ne
            | _ -> assert false
          in
          let l = fresh_label "cmp" in
          emit ctx.em (SCmp (r0, OReg r1));
          emit ctx.em (SMov (r0, OImm 1L));
          emit ctx.em (SJcc (cond, Lbl l));
          emit ctx.em (SMov (r0, OImm 0L));
          emit_label ctx.em l
      | Ast.Land | Ast.Lor -> assert false)

and gen_call ctx name args =
  (* evaluate arguments left to right onto the stack *)
  List.iter
    (fun a ->
      gen_expr ctx a;
      emit ctx.em (SPush (OReg r0)))
    args;
  let n = List.length args in
  match Ast.find_func ctx.prog name with
  | Some _ ->
      (* program function: args in r0..r5 *)
      if n > 6 then fail "too many arguments to %s" name;
      for i = n - 1 downto 0 do
        emit ctx.em (SPop i)
      done;
      emit ctx.em (SCall (Lbl (function_label name)))
  | None -> (
      match Vlibc.lookup name with
      | None -> fail "codegen: unknown function %s" name
      | Some { kind = Vlibc.Hypercall nr; _ } ->
          (* hypercall ABI: number in r0, args in r1..r5 *)
          if n > 5 then fail "too many hypercall arguments to %s" name;
          for i = n downto 1 do
            emit ctx.em (SPop i)
          done;
          emit ctx.em (SMov (r0, OImm (Int64.of_int nr)));
          emit ctx.em (SOut (Wasp.Hc.port, OReg r0))
      | Some { kind = Vlibc.Inline_rdtsc; _ } -> emit ctx.em (SRdtsc r0)
      | Some { kind = Vlibc.Library; _ } ->
          if n > 6 then fail "too many arguments to %s" name;
          for i = n - 1 downto 0 do
            emit ctx.em (SPop i)
          done;
          emit ctx.em (SCall (Lbl ("__vl_" ^ name))))

let rec gen_stmt ctx (s : Ast.stmt) =
  match s with
  | Ast.Expr e -> gen_expr ctx e
  | Ast.Decl (ty, name, init, _) -> (
      let off = declare_slot ctx.fr name (Ast.sizeof ty) in
      match init with
      | None -> ()
      | Some e -> (
          match ty with
          | Ast.Tarray _ -> fail "array initializers on locals are not supported"
          | _ ->
              gen_expr ctx e;
              emit ctx.em (SStore (access_width ty, fp, -off, OReg r0))))
  | Ast.If (c, t, f) ->
      let lelse = fresh_label "else" and lend = fresh_label "fi" in
      gen_expr ctx c;
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SJcc (Instr.Eq, Lbl lelse));
      push_scope ctx.fr;
      List.iter (gen_stmt ctx) t;
      pop_scope ctx.fr;
      emit ctx.em (SJmp (Lbl lend));
      emit_label ctx.em lelse;
      push_scope ctx.fr;
      List.iter (gen_stmt ctx) f;
      pop_scope ctx.fr;
      emit_label ctx.em lend
  | Ast.While (c, body) ->
      let ltop = fresh_label "wtop" and lend = fresh_label "wend" in
      emit_label ctx.em ltop;
      gen_expr ctx c;
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SJcc (Instr.Eq, Lbl lend));
      ctx.fr.loop_labels <- (lend, ltop) :: ctx.fr.loop_labels;
      push_scope ctx.fr;
      List.iter (gen_stmt ctx) body;
      pop_scope ctx.fr;
      ctx.fr.loop_labels <- List.tl ctx.fr.loop_labels;
      emit ctx.em (SJmp (Lbl ltop));
      emit_label ctx.em lend
  | Ast.Dowhile (body, c) ->
      (* body runs at least once; continue re-tests the condition *)
      let ltop = fresh_label "dtop"
      and lcond = fresh_label "dcond"
      and lend = fresh_label "dend" in
      emit_label ctx.em ltop;
      ctx.fr.loop_labels <- (lend, lcond) :: ctx.fr.loop_labels;
      push_scope ctx.fr;
      List.iter (gen_stmt ctx) body;
      pop_scope ctx.fr;
      ctx.fr.loop_labels <- List.tl ctx.fr.loop_labels;
      emit_label ctx.em lcond;
      gen_expr ctx c;
      emit ctx.em (SCmp (r0, OImm 0L));
      emit ctx.em (SJcc (Instr.Ne, Lbl ltop));
      emit_label ctx.em lend
  | Ast.For (init, cond, step, body) ->
      let ltop = fresh_label "ftop"
      and lstep = fresh_label "fstep"
      and lend = fresh_label "fend" in
      push_scope ctx.fr;
      (match init with Some s -> gen_stmt ctx s | None -> ());
      emit_label ctx.em ltop;
      (match cond with
      | Some c ->
          gen_expr ctx c;
          emit ctx.em (SCmp (r0, OImm 0L));
          emit ctx.em (SJcc (Instr.Eq, Lbl lend))
      | None -> ());
      ctx.fr.loop_labels <- (lend, lstep) :: ctx.fr.loop_labels;
      push_scope ctx.fr;
      List.iter (gen_stmt ctx) body;
      pop_scope ctx.fr;
      ctx.fr.loop_labels <- List.tl ctx.fr.loop_labels;
      emit_label ctx.em lstep;
      (match step with Some e -> gen_expr ctx e | None -> ());
      emit ctx.em (SJmp (Lbl ltop));
      emit_label ctx.em lend;
      pop_scope ctx.fr
  | Ast.Return (e, _) ->
      (match e with Some e -> gen_expr ctx e | None -> emit ctx.em (SMov (r0, OImm 0L)));
      emit ctx.em (SJmp (Lbl ctx.fr.epilogue))
  | Ast.Break loc -> (
      match ctx.fr.loop_labels with
      | (lend, _) :: _ -> emit ctx.em (SJmp (Lbl lend))
      | [] -> fail "break outside loop at %s" (Format.asprintf "%a" Ast.pp_loc loc))
  | Ast.Continue loc -> (
      match ctx.fr.loop_labels with
      | (_, lcont) :: _ -> emit ctx.em (SJmp (Lbl lcont))
      | [] -> fail "continue outside loop at %s" (Format.asprintf "%a" Ast.pp_loc loc))
  | Ast.Block body ->
      push_scope ctx.fr;
      List.iter (gen_stmt ctx) body;
      pop_scope ctx.fr

let gen_function_with prog strings (f : Ast.func) : Asm.item list =
  let frame_size = func_frame_bytes f in
  let fr =
    {
      slots = ref [ Hashtbl.create 8 ];
      next_offset = 0;
      frame_size;
      epilogue = fresh_label ("ret_" ^ f.fname);
      loop_labels = [];
    }
  in
  let em = { items = [] } in
  let global_names = List.map (fun (g : Ast.global) -> g.Ast.gname) prog.Ast.globals in
  let ctx = { prog; em; fr; strings; global_names } in
  emit_label em (function_label f.fname);
  (* prologue *)
  emit em (SPush (OReg fp));
  emit em (SMov (fp, OReg Instr.sp));
  if frame_size > 0 then emit em (SBin (Instr.Sub, Instr.sp, OImm (Int64.of_int frame_size)));
  (* spill parameters (passed in r0..r5) into their slots *)
  List.iteri
    (fun i (ty, name) ->
      let off = declare_slot fr name (Ast.sizeof ty) in
      emit em (SStore (access_width ty, fp, -off, OReg i)))
    f.params;
  List.iter (gen_stmt ctx) f.body;
  (* fall through: return 0 *)
  emit em (SMov (r0, OImm 0L));
  emit_label em fr.epilogue;
  emit em (SMov (Instr.sp, OReg fp));
  emit em (SPop fp);
  emit em SRet;
  List.rev em.items

let global_items (g : Ast.global) : Asm.item list =
  let size = Ast.sizeof g.Ast.gty in
  let data =
    match (g.Ast.init, g.Ast.gty) with
    | None, _ -> [ Asm.Zero size ]
    | Some (Ast.Scalar v), Ast.Tchar -> [ Asm.Byte [ Int64.to_int v land 0xFF ] ]
    | Some (Ast.Scalar v), _ -> [ Asm.Quad [ v ] ]
    | Some (Ast.Array_init vs), Ast.Tarray (Ast.Tchar, n) ->
        let bytes = List.map (fun v -> Int64.to_int v land 0xFF) vs in
        [ Asm.Byte bytes; Asm.Zero (max 0 (n - List.length bytes)) ]
    | Some (Ast.Array_init vs), Ast.Tarray (_, n) ->
        [ Asm.Quad vs; Asm.Zero (max 0 (8 * (n - List.length vs))) ]
    | Some (Ast.Array_init vs), _ -> [ Asm.Quad vs ]
    | Some (Ast.String_init s), Ast.Tarray (Ast.Tchar, n) ->
        [ Asm.Str s; Asm.Zero (max 0 (n - String.length s - 1)) ]
    | Some (Ast.String_init s), _ -> [ Asm.Str s ]
  in
  Asm.Label (global_label g.Ast.gname) :: data

let gen_image_items prog ~(root : Ast.func) ~snapshot (reach : Callgraph.reachable) :
    Asm.item list =
  let strings = { pool = [] } in
  let nparams = List.length root.Ast.params in
  let stub =
    [ Asm.Label "__unmarshal"; Asm.Insn (SMov (12, OImm 0L)) ]
    @ List.init nparams (fun i -> Asm.Insn (SLoad (Instr.W64, i, 12, 8 * i)))
    @ [
        Asm.Insn (SCall (Lbl (function_label root.Ast.fname)));
        (* exit(result) *)
        Asm.Insn (SMov (r1, OReg r0));
        Asm.Insn (SMov (r0, OImm (Int64.of_int Wasp.Hc.exit_)));
        Asm.Insn (SOut (Wasp.Hc.port, OReg r0));
        Asm.Insn SHlt;
      ]
  in
  let funcs =
    List.concat_map
      (fun name ->
        match Ast.find_func prog name with
        | Some f -> gen_function_with prog strings f
        | None -> [])
      reach.Callgraph.funcs
  in
  let globals =
    List.concat_map
      (fun name ->
        match List.find_opt (fun (g : Ast.global) -> g.Ast.gname = name) prog.Ast.globals
        with
        | Some g -> global_items g
        | None -> [])
      reach.Callgraph.globals
  in
  let string_data =
    List.concat_map (fun (l, s) -> [ Asm.Label l; Asm.Str s ]) (List.rev strings.pool)
  in
  Vlibc.init_items ~snapshot @ stub @ funcs
  @ Vlibc.items_for reach.Callgraph.builtins
  @ globals @ string_data
  @ [ Asm.Label "__heap_start" ]
