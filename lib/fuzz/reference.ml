(* The reference stepper: the vx ISA read one instruction at a time.

   It is the second arm of the fuzzer's engine oracle and the baseline
   the translator's tests and engine ablation compare against. To be a
   real second opinion it shares as little as possible with
   [Vm.Translate]: only the decoder ([Encoding.decode]), guest memory
   ([Vm.Memory]) and [Vm.Cpu]'s register file, pc and flags.
   Operators, conditions, shift masks, mode masking, address limits and
   branch targets are all derived here again, from the ISA description.
   Nothing here is fast: every step fetches and decodes afresh. *)

module Cpu = Vm.Cpu
module Memory = Vm.Memory

type hook = pc:int -> instr:Instr.t -> cost:int -> unit

let fault f = raise (Cpu.Vm_fault f)

(* Registers and immediates are truncated to the mode width; signed
   operations sign-extend from it. *)
let width cpu = match Cpu.mode cpu with Vm.Modes.Real -> 16 | Protected -> 32 | Long -> 64
let mask cpu v = if width cpu = 64 then v else Int64.(logand v (pred (shift_left 1L (width cpu))))
let sext cpu v = let s = 64 - width cpu in Int64.(shift_right (shift_left v s) s)
let reg cpu r = Bigarray.Array1.get (Cpu.regs cpu) r
let set cpu r v = Bigarray.Array1.set (Cpu.regs cpu) r (mask cpu v)
let operand cpu : Instr.operand -> int64 = function Reg r -> reg cpu r | Imm i -> mask cpu i

(* Accesses past the mode limit (1 MB real, 4 GB protected, 1 GB mapped
   in long mode) fault like hardware: a page fault in long mode, a
   bounds fault below it. Guest RAM bounds are Memory's. *)
let limit cpu =
  match Cpu.mode cpu with Vm.Modes.Real -> 1 lsl 20 | Protected -> 1 lsl 32 | Long -> 1 lsl 30

let check cpu addr size =
  if addr < 0 || addr > limit cpu - size then
    match Cpu.mode cpu with
    | Vm.Modes.Long -> fault (Page_fault { addr })
    | Real | Protected -> fault (Memory_oob { addr; size })

let load cpu (w : Instr.width) addr =
  let m = Cpu.mem cpu in
  check cpu addr (Instr.bytes_of_width w);
  match w with
  | W8 -> Int64.of_int (Memory.read_u8 m addr)
  | W16 -> Int64.of_int (Memory.read_u16 m addr)
  | W32 -> Int64.of_int (Memory.read_u32 m addr)
  | W64 -> Memory.read_u64 m addr

let store cpu (w : Instr.width) addr v =
  let m = Cpu.mem cpu in
  check cpu addr (Instr.bytes_of_width w);
  match w with
  | W8 -> Memory.write_u8 m addr (Int64.to_int v land 0xFF)
  | W16 -> Memory.write_u16 m addr (Int64.to_int v land 0xFFFF)
  | W32 -> Memory.write_u32 m addr (Int64.to_int (Int64.logand v 0xFFFFFFFFL))
  | W64 -> Memory.write_u64 m addr v

let push cpu v =
  let sp = Int64.to_int (reg cpu Instr.sp) - 8 in
  store cpu W64 sp v;
  set cpu Instr.sp (Int64.of_int sp)

let pop cpu =
  let sp = Int64.to_int (reg cpu Instr.sp) in
  let v = load cpu W64 sp in
  set cpu Instr.sp (Int64.of_int (sp + 8));
  v

let binop cpu (op : Instr.binop) l r ~pc =
  let sl = sext cpu l and sr = sext cpu r in
  let divide f = if sr = 0L then fault (Division_by_zero { addr = pc }) else f sl sr in
  (* counts wrap at the ALU width: 0..31 outside long mode, 0..63 in it *)
  let count = Int64.to_int (Int64.logand r (if width cpu = 64 then 63L else 31L)) in
  match op with
  | Add -> Int64.add l r
  | Sub -> Int64.sub l r
  | Mul -> Int64.mul l r
  | Div -> divide Int64.div
  | Rem -> divide Int64.rem
  | And -> Int64.logand l r
  | Or -> Int64.logor l r
  | Xor -> Int64.logxor l r
  | Shl -> Int64.shift_left l count
  | Shr -> Int64.shift_right_logical l count
  | Sar -> Int64.shift_right sl count

let cond cpu (c : Instr.cond) =
  let { Cpu.signed_cmp = s; unsigned_cmp = u } = Cpu.flags cpu in
  match c with
  | Eq -> s = 0 | Ne -> s <> 0 | Lt -> s < 0 | Le -> s <= 0 | Gt -> s > 0 | Ge -> s >= 0
  | Ult -> u < 0 | Ule -> u <= 0 | Ugt -> u > 0 | Uge -> u >= 0

(* Indirect targets are mode-masked; a long-mode value beyond the host
   int range lands on the mode limit, where the next fetch faults. *)
let target cpu v =
  let v = mask cpu v in
  if Int64.unsigned_compare v (Int64.of_int max_int) > 0 then limit cpu else Int64.to_int v

let fetch cpu pc =
  let byte a = check cpu a 1; Memory.read_u8 (Cpu.mem cpu) a in
  try Encoding.decode byte pc
  with Encoding.Decode_error { addr; msg } -> fault (Invalid_opcode { addr; msg })

(* One instruction: charge, retire, observe, execute. *)
let step ?hook cpu : Cpu.exit_reason option =
  let pc = Cpu.pc cpu in
  let instr, size = fetch cpu pc in
  let cost = Instr.cost instr in
  Cycles.Clock.advance_int (Cpu.clock cpu) cost;
  Cpu.add_retired cpu 1;
  (match hook with Some h -> h ~pc ~instr ~cost | None -> ());
  let next = pc + size in
  Cpu.set_pc cpu next;
  let jump = Cpu.set_pc cpu in
  match instr with
  | Hlt -> Some Halt
  | Out (port, src) -> Some (Io_out { port; value = operand cpu src })
  | In (rd, port) -> Some (Io_in { port; reg = rd })
  | Nop -> None
  | Mov (rd, src) -> set cpu rd (operand cpu src); None
  | Bin (op, rd, src) -> set cpu rd (binop cpu op (reg cpu rd) (operand cpu src) ~pc); None
  | Neg rd -> set cpu rd (Int64.neg (sext cpu (reg cpu rd))); None
  | Not rd -> set cpu rd (Int64.lognot (reg cpu rd)); None
  | Cmp (r, src) ->
      let l = reg cpu r and rv = operand cpu src and flags = Cpu.flags cpu in
      flags.signed_cmp <- Int64.compare (sext cpu l) (sext cpu rv);
      flags.unsigned_cmp <- Int64.unsigned_compare l rv;
      None
  | Jmp a -> jump a; None
  | Jcc (c, a) -> if cond cpu c then jump a; None
  | Call a -> push cpu (Int64.of_int next); jump a; None
  | Callr r ->
      push cpu (Int64.of_int next);
      (* read after the push: callr through sp sees the new sp *)
      jump (target cpu (reg cpu r));
      None
  | Ret -> jump (target cpu (pop cpu)); None
  | Push src -> push cpu (operand cpu src); None
  | Pop rd -> set cpu rd (pop cpu); None
  | Load (w, rd, rb, d) -> set cpu rd (load cpu w (Int64.to_int (reg cpu rb) + d)); None
  | Store (w, rb, d, src) -> store cpu w (Int64.to_int (reg cpu rb) + d) (operand cpu src); None
  | Lea (rd, rb, d) -> set cpu rd (Int64.add (reg cpu rb) (Int64.of_int d)); None
  | Rdtsc rd -> set cpu rd (Cycles.Clock.now (Cpu.clock cpu)); None

let run ?(fuel = 200_000_000) ?hook cpu : Cpu.exit_reason =
  (* a fault leaves the pc at the faulting instruction *)
  let rec loop fuel =
    if fuel <= 0 then Cpu.Out_of_fuel
    else
      let pc = Cpu.pc cpu in
      match step ?hook cpu with
      | None -> loop (fuel - 1)
      | Some exit -> exit
      | exception Cpu.Vm_fault f -> Cpu.set_pc cpu pc; Cpu.Fault f
      | exception Memory.Fault { addr; size } ->
          Cpu.set_pc cpu pc;
          Cpu.Fault (Memory_oob { addr; size })
  in
  loop fuel
