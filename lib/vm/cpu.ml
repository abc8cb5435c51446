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

type t = {
  memory : Memory.t;
  mutable cpu_mode : Modes.t;
  clock : Cycles.Clock.t;
  regs : int64 array;
  mutable pc : int;
  mutable signed_cmp : int;
  mutable unsigned_cmp : int;
  mutable retired : int64;
  mutable step_hook : (pc:int -> instr:Instr.t -> cost:int -> unit) option;
}

exception Vm_fault of fault

let create ~mem ~mode ~clock =
  {
    memory = mem;
    cpu_mode = mode;
    clock;
    regs = Array.make Instr.num_regs 0L;
    pc = 0;
    signed_cmp = 0;
    unsigned_cmp = 0;
    retired = 0L;
    step_hook = None;
  }

let mem t = t.memory
let mode t = t.cpu_mode

let get_reg t r = t.regs.(r)
let set_reg t r v = t.regs.(r) <- Modes.mask t.cpu_mode v

let pc t = t.pc
let set_pc t pc = t.pc <- pc
let set_sp t sp = set_reg t Instr.sp (Int64.of_int sp)

let instructions_retired t = t.retired

let set_step_hook t hook = t.step_hook <- Some hook
let clear_step_hook t = t.step_hook <- None

let reset t ~mode =
  t.cpu_mode <- mode;
  Array.fill t.regs 0 Instr.num_regs 0L;
  t.pc <- 0;
  t.signed_cmp <- 0;
  t.unsigned_cmp <- 0;
  t.retired <- 0L

(* Address check: guest RAM bounds are enforced by Memory; the mode's
   architectural limit (1 MB real, 4 GB protected, 1 GB mapped in long
   mode) is enforced here, faulting like hardware would.

   Overflow-safe, mirroring [Memory.check]: [addr + size] wraps negative
   for a base register near [max_int], which would slip past the limit
   check and surface a host [Invalid_argument] instead of a guest fault.
   [limit - size] cannot wrap once [addr >= 0] and [size >= 0]. *)
let check_range t addr size =
  let limit = Modes.address_limit t.cpu_mode in
  if addr < 0 || addr > limit - size then begin
    match t.cpu_mode with
    | Modes.Long -> raise (Vm_fault (Page_fault { addr }))
    | Modes.Real | Modes.Protected -> raise (Vm_fault (Memory_oob { addr; size }))
  end

let read_mem t width addr : int64 =
  let size = Instr.bytes_of_width width in
  check_range t addr size;
  match width with
  | Instr.W8 -> Int64.of_int (Memory.read_u8 t.memory addr)
  | Instr.W16 -> Int64.of_int (Memory.read_u16 t.memory addr)
  | Instr.W32 -> Int64.of_int (Memory.read_u32 t.memory addr)
  | Instr.W64 -> Memory.read_u64 t.memory addr

let write_mem t width addr (v : int64) =
  let size = Instr.bytes_of_width width in
  check_range t addr size;
  match width with
  | Instr.W8 -> Memory.write_u8 t.memory addr (Int64.to_int (Int64.logand v 0xFFL))
  | Instr.W16 -> Memory.write_u16 t.memory addr (Int64.to_int (Int64.logand v 0xFFFFL))
  | Instr.W32 ->
      Memory.write_u32 t.memory addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  | Instr.W64 -> Memory.write_u64 t.memory addr v

let eval_cond t : Instr.cond -> bool = function
  | Eq -> t.signed_cmp = 0
  | Ne -> t.signed_cmp <> 0
  | Lt -> t.signed_cmp < 0
  | Le -> t.signed_cmp <= 0
  | Gt -> t.signed_cmp > 0
  | Ge -> t.signed_cmp >= 0
  | Ult -> t.unsigned_cmp < 0
  | Ule -> t.unsigned_cmp <= 0
  | Ugt -> t.unsigned_cmp > 0
  | Uge -> t.unsigned_cmp >= 0

let push t v =
  let sp = Int64.to_int t.regs.(Instr.sp) - 8 in
  write_mem t Instr.W64 sp v;
  set_reg t Instr.sp (Int64.of_int sp)

let pop t =
  let sp = Int64.to_int t.regs.(Instr.sp) in
  let v = read_mem t Instr.W64 sp in
  set_reg t Instr.sp (Int64.of_int (sp + 8));
  v

(* Indirect branch targets (callr/ret) truncate to the mode width like
   every architectural register write; a 32-bit-mode guest with a stale
   high half lands at the masked address, it does not escape to a
   truncated host-int one. A long-mode value still exceeding the host
   int range clamps to the architectural limit so the next fetch faults
   there — the same fault [Jmp] to an out-of-range target takes. *)
let branch_target t v =
  let v = Modes.mask t.cpu_mode v in
  if Int64.unsigned_compare v (Int64.of_int max_int) > 0 then
    Modes.address_limit t.cpu_mode
  else Int64.to_int v

(* Decode the instruction at [pc]. Faults exactly as the guest's fetch
   would: past the mode limit, beyond guest RAM ({!Memory.Fault}), or on
   an invalid or truncated encoding. *)
let fetch t pc =
  let read_byte a =
    check_range t a 1;
    Memory.read_u8 t.memory a
  in
  try Encoding.decode read_byte pc with
  | Encoding.Decode_error { addr; msg } -> raise (Vm_fault (Invalid_opcode { addr; msg }))

(* ------------------------------------------------------------------ *)
(* Engine support (see translate.ml)                                   *)
(* ------------------------------------------------------------------ *)

let clock t = t.clock
let regs t = t.regs
let current_step_hook t = t.step_hook
let signed_cmp t = t.signed_cmp
let unsigned_cmp t = t.unsigned_cmp

let set_cmp t ~signed ~unsigned =
  t.signed_cmp <- signed;
  t.unsigned_cmp <- unsigned

let add_retired t n = t.retired <- Int64.add t.retired (Int64.of_int n)

