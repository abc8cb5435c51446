type fault =
  | Memory_oob of { addr : int; size : int }
  | Page_fault of { addr : int }
  | Invalid_opcode of { addr : int; msg : string }
  | Division_by_zero of { addr : int }

type exit_reason =
  | Halt
  | Io_out of { port : int; value : int64 }
  | Io_in of { port : int; reg : Instr.reg }
  | Fault of fault
  | Out_of_fuel

let pp_fault ppf = function
  | Memory_oob { addr; size } -> Format.fprintf ppf "memory fault at 0x%x (%d bytes)" addr size
  | Page_fault { addr } -> Format.fprintf ppf "page fault at 0x%x" addr
  | Invalid_opcode { addr; msg } -> Format.fprintf ppf "invalid opcode at 0x%x: %s" addr msg
  | Division_by_zero { addr } -> Format.fprintf ppf "division by zero at 0x%x" addr

let pp_exit ppf = function
  | Halt -> Format.pp_print_string ppf "halt"
  | Io_out { port; value } -> Format.fprintf ppf "out(port=0x%x, value=%Ld)" port value
  | Io_in { port; reg } -> Format.fprintf ppf "in(port=0x%x, r%d)" port reg
  | Fault f -> Format.fprintf ppf "fault: %a" pp_fault f
  | Out_of_fuel -> Format.pp_print_string ppf "out of fuel"

type regfile = Memory.words
type flags = { mutable signed_cmp : int; mutable unsigned_cmp : int }

type t = {
  memory : Memory.t;
  mutable cpu_mode : Modes.t;
  clock : Cycles.Clock.t;
  regs : regfile;
  flags : flags;
  mutable pc : int;
  mutable retired : int;
  mutable step_hook : (pc:int -> instr:Instr.t -> cost:int -> unit) option;
}

exception Vm_fault of fault

let create ~mem ~mode ~clock =
  let regs = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout Instr.num_regs in
  Bigarray.Array1.fill regs 0L;
  {
    memory = mem;
    cpu_mode = mode;
    clock;
    regs;
    flags = { signed_cmp = 0; unsigned_cmp = 0 };
    pc = 0;
    retired = 0;
    step_hook = None;
  }

let mem t = t.memory
let mode t = t.cpu_mode

let get_reg t r = Bigarray.Array1.get t.regs r
let set_reg t r v = Bigarray.Array1.set t.regs r (Modes.mask t.cpu_mode v)

let pc t = t.pc
let set_pc t pc = t.pc <- pc
let set_sp t sp = set_reg t Instr.sp (Int64.of_int sp)

let instructions_retired t = Int64.of_int t.retired

let set_step_hook t hook = t.step_hook <- Some hook
let clear_step_hook t = t.step_hook <- None

let reset t ~mode =
  t.cpu_mode <- mode;
  Bigarray.Array1.fill t.regs 0L;
  t.pc <- 0;
  t.flags.signed_cmp <- 0;
  t.flags.unsigned_cmp <- 0;
  t.retired <- 0

(* An access past the mode's architectural limit (1 MB real, 4 GB
   protected, 1 GB mapped in long mode) faults like hardware would;
   guest RAM bounds are Memory's. *)
let limit_fault mode addr size =
  match mode with
  | Modes.Long -> Page_fault { addr }
  | Modes.Real | Modes.Protected -> Memory_oob { addr; size }

(* Decode the instruction at [pc]. Faults exactly as the guest's fetch
   would: past the mode limit, beyond guest RAM ({!Memory.Fault}), or on
   an invalid or truncated encoding. Overflow-safe like [Memory.check]:
   [limit - 1] cannot wrap once [a >= 0]. *)
let fetch t pc =
  let limit = Modes.address_limit t.cpu_mode in
  let read_byte a =
    if a < 0 || a > limit - 1 then raise (Vm_fault (limit_fault t.cpu_mode a 1));
    Memory.read_u8 t.memory a
  in
  try Encoding.decode read_byte pc with
  | Encoding.Decode_error { addr; msg } -> raise (Vm_fault (Invalid_opcode { addr; msg }))

(* ------------------------------------------------------------------ *)
(* Engine support (see translate.ml)                                   *)
(* ------------------------------------------------------------------ *)

let clock t = t.clock
let regs t = t.regs
let flags t = t.flags
let current_step_hook t = t.step_hook
let add_retired t n = t.retired <- t.retired + n
