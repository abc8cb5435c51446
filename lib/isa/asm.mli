(** Two-pass assembler for vx programs.

    Plays the role NASM plays in the paper's toolchain: hand-written
    runtime stubs and test images are written either programmatically
    (symbolic instructions with label targets) or as assembly text. *)

type target = Lbl of string | Abs of int

(** Symbolic instruction: like {!Instr.t} but control flow may name labels,
    and data can be interleaved with code. *)
type item =
  | Label of string
  | Insn of sym_insn
  | Byte of int list          (** raw data bytes *)
  | Quad of int64 list        (** raw little-endian 64-bit words *)
  | Zero of int               (** [n] zero bytes (bss-style padding) *)
  | Str of string             (** NUL-terminated string data *)

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
(** [OLbl l] becomes an immediate holding the absolute address of [l]. *)

exception Asm_error of string

type program = {
  code : bytes;                   (** encoded bytes, to load at [origin] *)
  origin : int;                   (** load address *)
  entry : int;                    (** absolute entry address *)
  symbols : (string * int) list;  (** label -> absolute address *)
}

val assemble : ?origin:int -> ?entry:string -> item list -> program
(** Two-pass assembly. [origin] defaults to 0x8000 (where Wasp loads
    images, §5.1); [entry] defaults to the first item's address. Raises
    {!Asm_error} on duplicate or undefined labels. *)

val assemble_string : ?origin:int -> string -> program
(** Parse assembly text and {!assemble} it, entered at the first item.
    Syntax, one statement per line:
    {v
      ; comment
      label:
        mov r0, 20        ; also: add/sub/mul/div/rem/and/or/xor/shl/shr/sar
        cmp r0, r1
        jlt label         ; jeq jne jlt jle jgt jge jult jule jugt juge
        call fib
        ld64 r1, [r2+8]   ; ld8/16/32/64, st8/16/32/64
        st32 [r2-4], r1
        lea r0, [r15+16]
        push r0 / pop r1 / out 1, r0 / in r0, 2 / rdtsc r3 / ret / hlt / nop
        .byte 1, 2, 0xff
        .quad 42
        .zero 64
        .string "hello"
    v}
    Raises {!Asm_error} with a line number on syntax errors. *)

val lookup : program -> string -> int
(** Address of a label. Raises [Not_found]. *)
