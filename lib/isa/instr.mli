(** The vx guest instruction set.

    Virtine images are binaries for this small register machine. It stands
    in for the x86 subset the paper's assembly/newlib images use: 16 general
    registers, a guest-memory stack, absolute control flow, byte- to
    quad-word memory accesses, and port I/O ([out]) as the hypercall
    doorbell. Register width is truncated by the CPU according to the active
    processor mode (real = 16-bit, protected = 32-bit, long = 64-bit),
    mirroring how the same virtine source can be compiled for cheaper
    modes (paper Figure 3). *)

type reg = int
(** Register index in [0, 15]. By convention: r0 = return value and first
    argument, r0-r5 = arguments, r15 = stack pointer; vcc keeps its
    frame pointer in r13. *)

val num_regs : int
val sp : reg

val reg_of_name : string -> reg option

type operand = Reg of reg | Imm of int64

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar

val binop_name : binop -> string
(** Assembly mnemonic, e.g. "add". *)

type cond = Eq | Ne | Lt | Le | Gt | Ge | Ult | Ule | Ugt | Uge
(** Signed and unsigned comparisons against the flags set by [Cmp]. *)

type width = W8 | W16 | W32 | W64

val bytes_of_width : width -> int

type t =
  | Hlt                                  (** stop; VM exit [Halt]. *)
  | Nop
  | Mov of reg * operand
  | Bin of binop * reg * operand         (** rd <- rd op src. *)
  | Neg of reg
  | Not of reg
  | Cmp of reg * operand                 (** set flags from rd - src. *)
  | Jmp of int                           (** absolute guest address. *)
  | Jcc of cond * int
  | Call of int
  | Callr of reg                         (** indirect call. *)
  | Ret
  | Push of operand
  | Pop of reg
  | Load of width * reg * reg * int      (** rd <- [rb + disp], zero-extended. *)
  | Store of width * reg * int * operand (** [rb + disp] <- src (low bytes). *)
  | Lea of reg * reg * int               (** rd <- rb + disp. *)
  | Out of int * operand                 (** port I/O: the hypercall doorbell. *)
  | In of reg * int
  | Rdtsc of reg                         (** read the virtual cycle counter. *)

val to_string : t -> string
(** Assembly text, e.g. ["mov r0, 20"]. *)

val cost : t -> int
(** Cycle cost charged on retire (hypercall exits are charged separately by
    the host path). *)
