type target = Lbl of string | Abs of int

type item =
  | Label of string
  | Insn of sym_insn
  | Byte of int list
  | Quad of int64 list
  | Zero of int
  | Str of string

and sym_insn =
  | SHlt
  | SNop
  | SMov of Instr.reg * sym_operand
  | SBin of Instr.binop * Instr.reg * sym_operand
  | SNeg of Instr.reg
  | SNot of Instr.reg
  | SCmp of Instr.reg * sym_operand
  | SJmp of target
  | SJcc of Instr.cond * target
  | SCall of target
  | SCallr of Instr.reg
  | SRet
  | SPush of sym_operand
  | SPop of Instr.reg
  | SLoad of Instr.width * Instr.reg * Instr.reg * int
  | SStore of Instr.width * Instr.reg * int * sym_operand
  | SLea of Instr.reg * Instr.reg * int
  | SOut of int * sym_operand
  | SIn of Instr.reg * int
  | SRdtsc of Instr.reg

and sym_operand = OReg of Instr.reg | OImm of int64 | OLbl of string

exception Asm_error of string

type program = {
  code : bytes;
  origin : int;
  entry : int;
  symbols : (string * int) list;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Asm_error s)) fmt

let resolve_insn lookup_label : sym_insn -> Instr.t =
  let operand : sym_operand -> Instr.operand = function
    | OReg r -> Reg r
    | OImm i -> Imm i
    | OLbl l -> Imm (Int64.of_int (lookup_label l))
  in
  let tgt = function Lbl l -> lookup_label l | Abs a -> a in
  function
  | SHlt -> Hlt
  | SNop -> Nop
  | SMov (r, s) -> Mov (r, operand s)
  | SBin (op, r, s) -> Bin (op, r, operand s)
  | SNeg r -> Neg r
  | SNot r -> Not r
  | SCmp (r, s) -> Cmp (r, operand s)
  | SJmp t -> Jmp (tgt t)
  | SJcc (c, t) -> Jcc (c, tgt t)
  | SCall t -> Call (tgt t)
  | SCallr r -> Callr r
  | SRet -> Ret
  | SPush s -> Push (operand s)
  | SPop r -> Pop r
  | SLoad (w, rd, rb, d) -> Load (w, rd, rb, d)
  | SStore (w, rb, d, s) -> Store (w, rb, d, operand s)
  | SLea (rd, rb, d) -> Lea (rd, rb, d)
  | SOut (p, s) -> Out (p, operand s)
  | SIn (r, p) -> In (r, p)
  | SRdtsc r -> Rdtsc r

(* Replace label operands with dummies of identical encoded size. *)
let placeholder : sym_insn -> sym_insn = function
  | SMov (r, OLbl _) -> SMov (r, OImm 0L)
  | SBin (op, r, OLbl _) -> SBin (op, r, OImm 0L)
  | SCmp (r, OLbl _) -> SCmp (r, OImm 0L)
  | SPush (OLbl _) -> SPush (OImm 0L)
  | SStore (w, rb, d, OLbl _) -> SStore (w, rb, d, OImm 0L)
  | SOut (p, OLbl _) -> SOut (p, OImm 0L)
  | i -> i

let item_size = function
  | Label _ -> 0
  | Insn i -> Encoding.encoded_size (resolve_insn (fun _ -> 0) (placeholder i))
  | Byte bs -> List.length bs
  | Quad qs -> 8 * List.length qs
  | Zero n -> n
  | Str s -> String.length s + 1

let assemble ?(origin = 0x8000) ?entry items =
  (* pass 1: addresses *)
  let symbols = Hashtbl.create 16 in
  let addr = ref origin in
  List.iter
    (fun item ->
      (match item with
      | Label l ->
          if Hashtbl.mem symbols l then fail "duplicate label %s" l;
          Hashtbl.replace symbols l !addr
      | Insn _ | Byte _ | Quad _ | Zero _ | Str _ -> ());
      addr := !addr + item_size item)
    items;
  let lookup_label l =
    match Hashtbl.find_opt symbols l with
    | Some a -> a
    | None -> fail "undefined label %s" l
  in
  (* pass 2: emit *)
  let buf = Buffer.create 256 in
  List.iter
    (fun item ->
      match item with
      | Label _ -> ()
      | Insn i -> Encoding.encode buf (resolve_insn lookup_label i)
      | Byte bs -> List.iter (fun b -> Buffer.add_char buf (Char.chr (b land 0xFF))) bs
      | Quad qs ->
          List.iter
            (fun q ->
              for k = 0 to 7 do
                Buffer.add_char buf
                  (Char.chr (Int64.to_int (Int64.shift_right_logical q (8 * k)) land 0xFF))
              done)
            qs
      | Zero n -> Buffer.add_bytes buf (Bytes.make n '\000')
      | Str s ->
          Buffer.add_string buf s;
          Buffer.add_char buf '\000')
    items;
  let entry =
    match entry with Some l -> lookup_label l | None -> origin
  in
  {
    code = Buffer.to_bytes buf;
    origin;
    entry;
    symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [];
  }

let lookup p l =
  match List.assoc_opt l p.symbols with Some a -> a | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Textual parser                                                      *)
(* ------------------------------------------------------------------ *)

let strip_comment line =
  (* ';' starts a comment unless inside a string literal. *)
  let in_str = ref false in
  let cut = ref (String.length line) in
  (try
     String.iteri
       (fun i c ->
         if c = '"' then in_str := not !in_str
         else if c = ';' && not !in_str then begin
           cut := i;
           raise Exit
         end)
       line
   with Exit -> ());
  String.sub line 0 !cut

let tokenize_operands s =
  (* split on commas at top level (strings contain no commas in our usage) *)
  String.split_on_char ',' s |> List.map String.trim |> List.filter (fun x -> x <> "")

let parse_int lineno s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail "line %d: expected integer, got %S" lineno s

let parse_reg lineno s =
  match Instr.reg_of_name (String.trim s) with
  | Some r -> r
  | None -> fail "line %d: expected register, got %S" lineno s

let parse_operand lineno s : sym_operand =
  let s = String.trim s in
  match Instr.reg_of_name s with
  | Some r -> OReg r
  | None -> (
      match Int64.of_string_opt s with
      | Some i -> OImm i
      | None ->
          if s <> "" && (('a' <= s.[0] && s.[0] <= 'z') || ('A' <= s.[0] && s.[0] <= 'Z') || s.[0] = '_' || s.[0] = '.')
          then OLbl s
          else fail "line %d: bad operand %S" lineno s)

let parse_target lineno s : target =
  match parse_operand lineno s with
  | OImm i -> Abs (Int64.to_int i)
  | OLbl l -> Lbl l
  | OReg _ -> fail "line %d: branch target cannot be a register" lineno

(* "[rN+disp]" or "[rN-disp]" or "[rN]" *)
let parse_memref lineno s =
  let s = String.trim s in
  let n = String.length s in
  if n < 3 || s.[0] <> '[' || s.[n - 1] <> ']' then fail "line %d: bad memory operand %S" lineno s;
  let inner = String.sub s 1 (n - 2) in
  let split_at idx =
    let base = String.sub inner 0 idx in
    let disp = String.sub inner idx (String.length inner - idx) in
    (parse_reg lineno base, parse_int lineno disp)
  in
  match String.index_opt inner '+' with
  | Some i -> split_at i
  | None -> (
      match String.index_opt inner '-' with
      | Some i -> split_at i
      | None -> (parse_reg lineno inner, 0))

let binop_of_mnemonic = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "div" -> Some Instr.Div
  | "rem" -> Some Instr.Rem
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "shl" -> Some Instr.Shl
  | "shr" -> Some Instr.Shr
  | "sar" -> Some Instr.Sar
  | _ -> None

let cond_of_mnemonic = function
  | "jeq" -> Some Instr.Eq
  | "jne" -> Some Instr.Ne
  | "jlt" -> Some Instr.Lt
  | "jle" -> Some Instr.Le
  | "jgt" -> Some Instr.Gt
  | "jge" -> Some Instr.Ge
  | "jult" -> Some Instr.Ult
  | "jule" -> Some Instr.Ule
  | "jugt" -> Some Instr.Ugt
  | "juge" -> Some Instr.Uge
  | _ -> None

let width_of_suffix lineno = function
  | "8" -> Instr.W8
  | "16" -> Instr.W16
  | "32" -> Instr.W32
  | "64" -> Instr.W64
  | s -> fail "line %d: bad width suffix %S" lineno s

let parse_string_literal lineno s =
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '"' || s.[n - 1] <> '"' then fail "line %d: expected string literal" lineno;
  let inner = String.sub s 1 (n - 2) in
  let buf = Buffer.create (String.length inner) in
  let i = ref 0 in
  while !i < String.length inner do
    let c = inner.[!i] in
    if c = '\\' && !i + 1 < String.length inner then begin
      (match inner.[!i + 1] with
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | 'r' -> Buffer.add_char buf '\r'
      | '0' -> Buffer.add_char buf '\000'
      | '\\' -> Buffer.add_char buf '\\'
      | '"' -> Buffer.add_char buf '"'
      | other -> fail "line %d: bad escape \\%c" lineno other);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let parse_line lineno line : item list =
  let line = String.trim (strip_comment line) in
  if line = "" then []
  else if String.length line > 1 && line.[String.length line - 1] = ':' then
    [ Label (String.sub line 0 (String.length line - 1)) ]
  else begin
    let mnemonic, rest =
      match String.index_opt line ' ' with
      | Some i ->
          (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
      | None -> (line, "")
    in
    let mnemonic = String.lowercase_ascii mnemonic in
    let ops () = tokenize_operands rest in
    let two () =
      match ops () with
      | [ a; b ] -> (a, b)
      | _ -> fail "line %d: %s expects two operands" lineno mnemonic
    in
    let one () =
      match ops () with
      | [ a ] -> a
      | _ -> fail "line %d: %s expects one operand" lineno mnemonic
    in
    let none () =
      match ops () with
      | [] -> ()
      | _ -> fail "line %d: %s expects no operands" lineno mnemonic
    in
    match mnemonic with
    | "hlt" ->
        none ();
        [ Insn SHlt ]
    | "nop" ->
        none ();
        [ Insn SNop ]
    | "ret" ->
        none ();
        [ Insn SRet ]
    | "mov" ->
        let a, b = two () in
        [ Insn (SMov (parse_reg lineno a, parse_operand lineno b)) ]
    | "cmp" ->
        let a, b = two () in
        [ Insn (SCmp (parse_reg lineno a, parse_operand lineno b)) ]
    | "neg" -> [ Insn (SNeg (parse_reg lineno (one ()))) ]
    | "not" -> [ Insn (SNot (parse_reg lineno (one ()))) ]
    | "jmp" -> [ Insn (SJmp (parse_target lineno (one ()))) ]
    | "call" -> [ Insn (SCall (parse_target lineno (one ()))) ]
    | "callr" -> [ Insn (SCallr (parse_reg lineno (one ()))) ]
    | "push" -> [ Insn (SPush (parse_operand lineno (one ()))) ]
    | "pop" -> [ Insn (SPop (parse_reg lineno (one ()))) ]
    | "rdtsc" -> [ Insn (SRdtsc (parse_reg lineno (one ()))) ]
    | "out" ->
        let a, b = two () in
        [ Insn (SOut (parse_int lineno a, parse_operand lineno b)) ]
    | "in" ->
        let a, b = two () in
        [ Insn (SIn (parse_reg lineno a, parse_int lineno b)) ]
    | "lea" ->
        let a, b = two () in
        let rb, d = parse_memref lineno b in
        [ Insn (SLea (parse_reg lineno a, rb, d)) ]
    | ".byte" -> [ Byte (List.map (parse_int lineno) (ops ())) ]
    | ".quad" ->
        [ Quad (List.map (fun s -> Int64.of_string (String.trim s)) (ops ())) ]
    | ".zero" -> [ Zero (parse_int lineno (one ())) ]
    | ".string" -> [ Str (parse_string_literal lineno rest) ]
    | _ -> (
        match binop_of_mnemonic mnemonic with
        | Some op ->
            let a, b = two () in
            [ Insn (SBin (op, parse_reg lineno a, parse_operand lineno b)) ]
        | None -> (
            match cond_of_mnemonic mnemonic with
            | Some c -> [ Insn (SJcc (c, parse_target lineno (one ()))) ]
            | None ->
                if String.length mnemonic > 2 && String.sub mnemonic 0 2 = "ld" then begin
                  let w = width_of_suffix lineno (String.sub mnemonic 2 (String.length mnemonic - 2)) in
                  let a, b = two () in
                  let rb, d = parse_memref lineno b in
                  [ Insn (SLoad (w, parse_reg lineno a, rb, d)) ]
                end
                else if String.length mnemonic > 2 && String.sub mnemonic 0 2 = "st" then begin
                  let w = width_of_suffix lineno (String.sub mnemonic 2 (String.length mnemonic - 2)) in
                  let a, b = two () in
                  let rb, d = parse_memref lineno a in
                  [ Insn (SStore (w, rb, d, parse_operand lineno b)) ]
                end
                else fail "line %d: unknown mnemonic %S" lineno mnemonic))
  end

let parse text =
  let lines = String.split_on_char '\n' text in
  List.concat (List.mapi (fun i line -> parse_line (i + 1) line) lines)

let assemble_string ?origin text = assemble ?origin (parse text)
