type reg = int

let num_regs = 16
let sp = 15
let reg_name r = Printf.sprintf "r%d" r

let reg_of_name s =
  let n = String.length s in
  if n >= 2 && n <= 3 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some r when r >= 0 && r < num_regs -> Some r
    | Some _ | None -> None
  else None

type operand = Reg of reg | Imm of int64

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar

type cond = Eq | Ne | Lt | Le | Gt | Ge | Ult | Ule | Ugt | Uge

type width = W8 | W16 | W32 | W64

let bytes_of_width = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

type t =
  | Hlt
  | Nop
  | Mov of reg * operand
  | Bin of binop * reg * operand
  | Neg of reg
  | Not of reg
  | Cmp of reg * operand
  | Jmp of int
  | Jcc of cond * int
  | Call of int
  | Callr of reg
  | Ret
  | Push of operand
  | Pop of reg
  | Load of width * reg * reg * int
  | Store of width * reg * int * operand
  | Lea of reg * reg * int
  | Out of int * operand
  | In of reg * int
  | Rdtsc of reg

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Ult -> "ult"
  | Ule -> "ule"
  | Ugt -> "ugt"
  | Uge -> "uge"

let width_suffix = function W8 -> "8" | W16 -> "16" | W32 -> "32" | W64 -> "64"

let pp_operand ppf = function
  | Reg r -> Format.pp_print_string ppf (reg_name r)
  | Imm i -> Format.fprintf ppf "%Ld" i

let pp ppf = function
  | Hlt -> Format.pp_print_string ppf "hlt"
  | Nop -> Format.pp_print_string ppf "nop"
  | Mov (rd, src) -> Format.fprintf ppf "mov %s, %a" (reg_name rd) pp_operand src
  | Bin (op, rd, src) ->
      Format.fprintf ppf "%s %s, %a" (binop_name op) (reg_name rd) pp_operand src
  | Neg r -> Format.fprintf ppf "neg %s" (reg_name r)
  | Not r -> Format.fprintf ppf "not %s" (reg_name r)
  | Cmp (r, src) -> Format.fprintf ppf "cmp %s, %a" (reg_name r) pp_operand src
  | Jmp a -> Format.fprintf ppf "jmp 0x%x" a
  | Jcc (c, a) -> Format.fprintf ppf "j%s 0x%x" (cond_name c) a
  | Call a -> Format.fprintf ppf "call 0x%x" a
  | Callr r -> Format.fprintf ppf "callr %s" (reg_name r)
  | Ret -> Format.pp_print_string ppf "ret"
  | Push src -> Format.fprintf ppf "push %a" pp_operand src
  | Pop r -> Format.fprintf ppf "pop %s" (reg_name r)
  | Load (w, rd, rb, d) ->
      Format.fprintf ppf "ld%s %s, [%s%+d]" (width_suffix w) (reg_name rd) (reg_name rb) d
  | Store (w, rb, d, src) ->
      Format.fprintf ppf "st%s [%s%+d], %a" (width_suffix w) (reg_name rb) d pp_operand src
  | Lea (rd, rb, d) -> Format.fprintf ppf "lea %s, [%s%+d]" (reg_name rd) (reg_name rb) d
  | Out (p, src) -> Format.fprintf ppf "out 0x%x, %a" p pp_operand src
  | In (r, p) -> Format.fprintf ppf "in %s, 0x%x" (reg_name r) p
  | Rdtsc r -> Format.fprintf ppf "rdtsc %s" (reg_name r)

let to_string i = Format.asprintf "%a" pp i

let cost = function
  | Hlt -> 1
  | Nop -> 1
  | Mov _ | Neg _ | Not _ | Cmp _ -> Cycles.Costs.alu
  | Bin ((Add | Sub | And | Or | Xor | Shl | Shr | Sar), _, _) -> Cycles.Costs.alu
  | Bin (Mul, _, _) -> Cycles.Costs.mul
  | Bin ((Div | Rem), _, _) -> Cycles.Costs.div
  | Jmp _ | Jcc _ -> Cycles.Costs.branch
  | Call _ | Callr _ | Ret -> Cycles.Costs.call + Cycles.Costs.mem
  | Push _ | Pop _ -> Cycles.Costs.alu + Cycles.Costs.mem
  | Load _ | Store _ -> Cycles.Costs.mem
  | Lea _ -> Cycles.Costs.alu
  | Out _ | In _ -> Cycles.Costs.hypercall_guest_side
  | Rdtsc _ -> Cycles.Costs.rdtsc
