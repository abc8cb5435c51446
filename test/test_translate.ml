(* Differential tests for the superblock translation cache: the
   translator must be observationally identical to the reference
   stepper (Fuzz.Reference) — same final registers and memory, same
   retired count, same exit reason, and bit-for-bit identical simulated
   cycles — across random programs, self-modifying code and CoW breaks
   mid-run, in both block flavours. *)

let origin = 0x8000

(* ------------------------------------------------------------------ *)
(* Differential harness                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  exit : string;
  regs : int64 array;
  mem : bytes;
  retired : int64;
  cycles : int64;
  pc : int;
}

let exit_str (e : Vm.Cpu.exit_reason) = Format.asprintf "%a" Vm.Cpu.pp_exit e

type hook = pc:int -> instr:Instr.t -> cost:int -> unit

(* A fresh vCPU with [code] at [origin]; [prepare] sees the memory and
   CPU before the first instruction (fault hooks, CoW captures). *)
let machine ?(mode = Vm.Modes.Long) ?(mem_size = 64 * 1024) ?(prepare = fun _ _ -> ())
    code =
  let mem = Vm.Memory.create ~size:mem_size in
  Vm.Memory.write_bytes mem ~off:origin code;
  let cpu = Vm.Cpu.create ~mem ~mode ~clock:(Cycles.Clock.create ()) in
  Vm.Cpu.set_pc cpu origin;
  Vm.Cpu.set_sp cpu 0x8000;
  prepare mem cpu;
  (cpu, mem)

(* One engine's resumable run function over [cpu]; [hook] is installed
   the way each engine takes it (a Cpu step hook for the translator).
   [block_hook] observes the translator's block entries. *)
let runner ?(hook : hook option) ?block_hook engine cpu =
  match engine with
  | `Reference -> fun fuel -> Fuzz.Reference.run ~fuel ?hook cpu
  | `Translate ->
      Vm.Cpu.set_step_hook cpu hook;
      let tr = Vm.Translate.create () in
      Vm.Translate.set_block_hook tr block_hook;
      fun fuel -> Vm.Translate.run ~fuel tr cpu

let outcome cpu mem e =
  {
    exit = exit_str e;
    regs = Array.init Instr.num_regs (Vm.Cpu.get_reg cpu);
    mem = Vm.Memory.snapshot mem;
    retired = Vm.Cpu.instructions_retired cpu;
    cycles = Cycles.Clock.now (Vm.Cpu.clock cpu);
    pc = Vm.Cpu.pc cpu;
  }

(* Run [code] to completion under one engine, resuming deterministically
   through a bounded number of I/O exits ([in] deposits a constant). *)
let exec ?hook ?block_hook ?prepare engine ~mode ~mem_size code =
  let cpu, mem = machine ~mode ~mem_size ?prepare code in
  let step = runner ?hook ?block_hook engine cpu in
  let fuel = 50_000 in
  let rec go budget =
    let left = fuel - Int64.to_int (Vm.Cpu.instructions_retired cpu) in
    if left <= 0 then Vm.Cpu.Out_of_fuel
    else
      match step left with
      | Vm.Cpu.Io_out _ when budget > 0 -> go (budget - 1)
      | Vm.Cpu.Io_in { reg; _ } when budget > 0 ->
          Vm.Cpu.set_reg cpu reg 0x5A5AL;
          go (budget - 1)
      | e -> e
  in
  let e = go 32 in
  outcome cpu mem e

let same a b =
  a.exit = b.exit && a.retired = b.retired && a.cycles = b.cycles && a.regs = b.regs
  && Bytes.equal a.mem b.mem

let check_same name a b =
  Alcotest.(check string) (name ^ ": exit") a.exit b.exit;
  Alcotest.(check int64) (name ^ ": retired") a.retired b.retired;
  Alcotest.(check int64) (name ^ ": cycles") a.cycles b.cycles;
  Array.iteri
    (fun i v -> Alcotest.(check int64) (Printf.sprintf "%s: r%d" name i) v b.regs.(i))
    a.regs;
  Alcotest.(check bool) (name ^ ": memory") true (Bytes.equal a.mem b.mem)

let both ?(mode = Vm.Modes.Long) ?(mem_size = 64 * 1024) name code =
  let r = exec `Reference ~mode ~mem_size code in
  let t = exec `Translate ~mode ~mem_size code in
  check_same name r t;
  (r, t)

(* ------------------------------------------------------------------ *)
(* Random-program fuzz (generators mirror test_isa's)                   *)
(* ------------------------------------------------------------------ *)

let gen_reg = QCheck.Gen.int_range 0 (Instr.num_regs - 1)

let gen_operand =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Instr.Reg r) gen_reg;
        map (fun i -> Instr.Imm i) (map Int64.of_int int);
      ])

let gen_binop =
  QCheck.Gen.oneofl [ Instr.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar ]

let gen_cond = QCheck.Gen.oneofl [ Instr.Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ]
let gen_width = QCheck.Gen.oneofl [ Instr.W8; W16; W32; W64 ]
let gen_addr = QCheck.Gen.int_range 0 0xFFFFFF
let gen_disp = QCheck.Gen.int_range (-4096) 4096
let gen_port = QCheck.Gen.int_range 0 255

let gen_instr : Instr.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        return Instr.Hlt;
        return Instr.Nop;
        return Instr.Ret;
        map2 (fun r o -> Instr.Mov (r, o)) gen_reg gen_operand;
        map3 (fun op r o -> Instr.Bin (op, r, o)) gen_binop gen_reg gen_operand;
        map (fun r -> Instr.Neg r) gen_reg;
        map (fun r -> Instr.Not r) gen_reg;
        map2 (fun r o -> Instr.Cmp (r, o)) gen_reg gen_operand;
        map (fun a -> Instr.Jmp a) gen_addr;
        map2 (fun c a -> Instr.Jcc (c, a)) gen_cond gen_addr;
        map (fun a -> Instr.Call a) gen_addr;
        map (fun r -> Instr.Callr r) gen_reg;
        map (fun o -> Instr.Push o) gen_operand;
        map (fun r -> Instr.Pop r) gen_reg;
        (let* w = gen_width and* rd = gen_reg and* rb = gen_reg and* d = gen_disp in
         return (Instr.Load (w, rd, rb, d)));
        (let* w = gen_width and* rb = gen_reg and* d = gen_disp and* o = gen_operand in
         return (Instr.Store (w, rb, d, o)));
        map3 (fun rd rb d -> Instr.Lea (rd, rb, d)) gen_reg gen_reg gen_disp;
        map2 (fun p o -> Instr.Out (p, o)) gen_port gen_operand;
        map2 (fun r p -> Instr.In (r, p)) gen_reg gen_port;
        map (fun r -> Instr.Rdtsc r) gen_reg;
      ])

let gen_mode = QCheck.Gen.oneofl [ Vm.Modes.Real; Vm.Modes.Protected; Vm.Modes.Long ]

let print_program (mode, instrs) =
  Printf.sprintf "%s: %s" (Vm.Modes.to_string mode)
    (String.concat "; " (List.map Instr.to_string instrs))

let arb_program =
  QCheck.make ~print:print_program
    QCheck.Gen.(pair gen_mode (list_size (int_range 1 60) gen_instr))

let agrees (mode, instrs) =
  let code = Encoding.encode_program instrs in
  let mem_size = 64 * 1024 in
  same (exec `Reference ~mode ~mem_size code) (exec `Translate ~mode ~mem_size code)

(* The hooked flavour: a recording step hook must see the same
   (pc, instr, cost, Clock.now) sequence under the translator as under
   the reference stepper, and the run must end identically. *)
let agrees_hooked (mode, instrs) =
  let code = Encoding.encode_program instrs in
  let mem_size = 64 * 1024 in
  let recorded engine =
    let log = ref [] in
    let clock = ref None in
    let prepare _ cpu = clock := Some (Vm.Cpu.clock cpu) in
    let hook ~pc ~instr ~cost =
      log := (pc, instr, cost, Cycles.Clock.now (Option.get !clock)) :: !log
    in
    let o = exec ~hook ~prepare engine ~mode ~mem_size code in
    (o, List.rev !log)
  in
  let r, rlog = recorded `Reference and t, tlog = recorded `Translate in
  same r t && rlog = tlog

let prop_differential =
  QCheck.Test.make ~name:"random programs agree across engines" ~count:400 arb_program
    agrees

let prop_hooked =
  QCheck.Test.make ~name:"hooked flavour matches the reference hook sequence" ~count:400
    arb_program agrees_hooked

(* The corpus above almost never stores into its own code page:
   registers start at 0 and displacements stay within 4 KB of them.
   Here each program first points a base register at [origin], no
   other instruction writes it, and every store is relative to it with
   a displacement from 64 bytes before the code to 64 bytes past its
   end. Stores land on code bytes, on the bytes just past the code and
   on the page below, so the code extents decide every outcome. *)
let sparing base (i : Instr.t) : Instr.t =
  let r rd = if rd = base then (base + 1) mod Instr.num_regs else rd in
  match i with
  | Mov (rd, o) -> Mov (r rd, o)
  | Bin (op, rd, o) -> Bin (op, r rd, o)
  | Neg rd -> Neg (r rd)
  | Not rd -> Not (r rd)
  | Pop rd -> Pop (r rd)
  | Load (w, rd, rb, d) -> Load (w, r rd, rb, d)
  | Lea (rd, rb, d) -> Lea (r rd, rb, d)
  | In (rd, p) -> In (r rd, p)
  | Rdtsc rd -> Rdtsc (r rd)
  | Hlt | Nop | Ret | Cmp _ | Jmp _ | Jcc _ | Call _ | Callr _ | Push _ | Store _ | Out _ ->
      i

let arb_code_page_program =
  let open QCheck.Gen in
  let gen =
    let* mode = gen_mode in
    let* base = oneofl (List.filter (( <> ) Instr.sp) (List.init Instr.num_regs Fun.id)) in
    let item =
      frequency
        [
          (3, map (fun i -> `Instr (sparing base i)) gen_instr);
          (2, map2 (fun w o -> `Store (w, o)) gen_width gen_operand);
        ]
    in
    let* items = list_size (int_range 1 60) item in
    let point = Instr.Mov (base, Imm (Int64.of_int origin)) in
    let at d = function `Instr i -> i | `Store (w, o) -> Instr.Store (w, base, d, o) in
    (* a displacement never changes an encoded size *)
    let len =
      List.fold_left (fun n it -> n + Encoding.encoded_size (at 0 it))
        (Encoding.encoded_size point) items
    in
    let+ disps = list_repeat (List.length items) (int_range (-64) (len + 64)) in
    (mode, point :: List.map2 at disps items)
  in
  QCheck.make ~print:print_program gen

let prop_code_page =
  QCheck.Test.make ~name:"stores aimed at the code page agree in both flavours" ~count:300
    arb_code_page_program (fun p -> agrees p && agrees_hooked p)

(* The translator's specialised paths: the stack, 64-bit accesses that
   straddle a page, and returns. Every program points r12 at
   [data_base], places its stack, then runs its main items [passes]
   times; the items call two stack-neutral subroutines from several
   sites, so each ret alternates between two or more return sites
   (more than the return cache holds, sometimes). Items write only
   r0-r5 and sp; [push sp] and [pop sp] come both alone and paired. The
   stack either ends just past the code, so pushes land on the code's
   own tail, in the block doing the push; or starts half a word into a
   page, so every push straddles it; or sits in a data page. The
   memory is captured before the run, so the first push or store to
   any page with data or code breaks it copy-on-write. *)
let data_base = 0xB000

let gen_stack_program =
  let open QCheck.Gen in
  let open Asm in
  let small = int_range 0 5 in
  let src = oneof [ map (fun r -> OReg r) small; map (fun i -> OImm (Int64.of_int i)) int ] in
  let straddle = int_range (-12) 4 in
  let one i = [ Insn i ] in
  (* stack-neutral, so a subroutine still returns to its call site *)
  let neutral =
    frequency
      [
        (2, map2 (fun a b -> [ Insn (SPush (OReg a)); Insn (SPop b) ]) small small);
        (2, return [ Insn (SPush (OReg Instr.sp)); Insn (SPop Instr.sp) ]);
        (1, map2 (fun o b -> [ Insn (SPush o); Insn (SPop b) ]) src small);
        (3, map2 (fun d o -> one (SStore (Instr.W64, 12, d, o))) straddle src);
        (3, map2 (fun r d -> one (SLoad (Instr.W64, r, 12, d))) small straddle);
        (1, map2 (fun d o -> one (SStore (Instr.W64, Instr.sp, d, o))) (int_range (-16) (-8)) src);
        (2, map3 (fun op r o -> one (SBin (op, r, o))) (oneofl Instr.[ Add; Sub; Xor ]) small src);
        (1, map2 (fun r o -> one (SMov (r, o))) small src);
      ]
  in
  let main_item =
    frequency
      [
        (4, neutral);
        (4, map (fun f -> one (SCall (Lbl f))) (oneofl [ "f0"; "f1" ]));
        (1, map (fun r -> one (SPush (OReg r))) small);
        (1, return (one (SPush (OReg Instr.sp))));
        (1, map (fun r -> one (SPop r)) small);
        (1, return (one (SPop Instr.sp)));
        (* a stack switch: [pop sp] keeps the popped word *)
        (1, map (fun a -> [ Insn (SPush (OImm a)); Insn (SPop Instr.sp) ]) (oneofl [ 0x7000L; 0xA004L ]));
      ]
  in
  let* mode = gen_mode in
  let* stack = oneof [ map (fun k -> `Past_code k) (int_range 0 16); return `Straddle; return `Data ] in
  let* passes = int_range 1 4 in
  let* main = list_size (int_range 4 24) main_item in
  let* f0 = list_size (int_range 0 4) neutral and* f1 = list_size (int_range 0 4) neutral in
  let set_sp =
    match stack with
    | `Past_code k -> [ Insn (SMov (Instr.sp, OLbl "end")); Insn (SLea (Instr.sp, Instr.sp, k)) ]
    | `Straddle -> [ Insn (SMov (Instr.sp, OImm 0xA004L)) ]
    | `Data -> [ Insn (SMov (Instr.sp, OImm 0x7000L)) ]
  in
  let items =
    [ Insn (SMov (12, OImm (Int64.of_int data_base))) ]
    @ set_sp
    @ [ Insn (SMov (9, OImm (Int64.of_int passes))); Label "loop" ]
    @ List.concat main
    @ [ Insn (SBin (Instr.Sub, 9, OImm 1L)); Insn (SCmp (9, OImm 0L));
        Insn (SJcc (Instr.Ne, Lbl "loop")); Insn SHlt; Label "f0" ]
    @ List.concat f0 @ [ Insn SRet; Label "f1" ] @ List.concat f1 @ [ Insn SRet; Label "end" ]
  in
  return (mode, (Asm.assemble ~origin items).Asm.code)

let arb_stack_program =
  QCheck.make
    ~print:(fun (mode, code) ->
      Printf.sprintf "%s:\n%s" (Vm.Modes.to_string mode) (Disasm.render (Disasm.disassemble ~origin code)))
    gen_stack_program

(* Data on every page the programs write, then a capture, so first
   writes break shared pages; the fault hook charges an EPT-style cost
   and logs the page, clock and pc it observes (as in "cow mid-run"). *)
let cow_prepare log mem cpu =
  List.iter (fun a -> Vm.Memory.write_u64 mem a 0x1111L) [ 0x6FF0; 0x9FF0; 0xA008; data_base - 16; data_base ];
  ignore (Vm.Memory.capture mem);
  Vm.Memory.set_fault_hook mem
    (Some
       (fun ~shared ~page ->
         if shared then begin
           Cycles.Clock.advance_int (Vm.Cpu.clock cpu) 1000;
           log := (page, Cycles.Clock.now (Vm.Cpu.clock cpu), Vm.Cpu.pc cpu) :: !log
         end))

(* [xs] occurs in [ys] in order, not necessarily contiguously. *)
let rec subsequence xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' -> if x = y then subsequence xs' ys' else subsequence xs ys'

(* Run [code] under one engine with the CoW capture and a block hook
   recording pcs; the reference always records its executed pcs, the
   translator runs its hooked flavour when [hooked]. *)
let traced ~hooked engine (mode, code) =
  let breaks = ref [] and steps = ref [] and blocks = ref [] in
  let clock = ref None in
  let prepare mem cpu =
    clock := Some (Vm.Cpu.clock cpu);
    cow_prepare breaks mem cpu
  in
  let hook ~pc ~instr ~cost = steps := (pc, instr, cost, Cycles.Clock.now (Option.get !clock)) :: !steps in
  let hook = if hooked || engine = `Reference then Some hook else None in
  let block_hook ~pc = blocks := pc :: !blocks in
  let o = exec ?hook ~block_hook ~prepare engine ~mode ~mem_size:(64 * 1024) code in
  (o, List.rev !breaks, List.rev !steps, List.rev !blocks)

(* Block entries are executed pcs, in order; and every pc the reference
   reached through a call, jmp or ret is a block entry — a return the
   cache resolves fires the block hook as a dispatched one does. *)
let stack_paths_agree p =
  let r, rbreaks, rsteps, _ = traced ~hooked:false `Reference p in
  (* the pcs the reference executed, then the one it stopped at *)
  let pcs = List.map (fun (pc, _, _, _) -> pc) rsteps in
  let executed = pcs @ [ r.pc ] in
  let rec transferred = function
    | (_, (i : Instr.t), _, _) :: ((pc, _, _, _) :: _ as rest) -> (
        match i with
        | Call _ | Callr _ | Jmp _ | Ret -> pc :: transferred rest
        | _ -> transferred rest)
    | _ -> []
  in
  List.for_all
    (fun hooked ->
      let t, tbreaks, tsteps, tblocks = traced ~hooked `Translate p in
      same r t && r.pc = t.pc && rbreaks = tbreaks
      && ((not hooked) || rsteps = tsteps)
      && subsequence tblocks executed
      && subsequence (transferred rsteps) tblocks)
    [ false; true ]

let prop_stack_paths =
  QCheck.Test.make ~name:"stack, straddles and returns agree in both flavours" ~count:300
    arb_stack_program stack_paths_agree

(* One cache, many memories: 2-3 machines, each with its own memory and
   program, run in turns — one run, up to an exit, each per turn — and
   under the translator every run goes through one cache, as a system's
   vCPUs do. The programs share a prefix and differ in their tails, and
   the memories differ in size, so each machine meets blocks another
   memory validated at the same pcs: equal bytes are revalidated,
   changed ones translated again, and a block past a smaller memory's
   end is bounds-checked. Each machine must end as the reference
   stepper, run alone, ends it; [hooked] records the step-hook stream
   too. *)
let exec_turns ~hooked engine ~mode progs =
  let tr = Vm.Translate.create () in
  let fuel = 50_000 in
  let machines =
    List.map
      (fun (mem_size, code) ->
        let cpu, mem = machine ~mode ~mem_size code in
        let log = ref [] in
        let hook ~pc ~instr ~cost =
          log := (pc, instr, cost, Cycles.Clock.now (Vm.Cpu.clock cpu)) :: !log
        in
        let step =
          match engine with
          | `Reference ->
              let hook = if hooked then Some hook else None in
              fun fuel -> Fuzz.Reference.run ~fuel ?hook cpu
          | `Translate ->
              if hooked then Vm.Cpu.set_step_hook cpu (Some hook);
              fun fuel -> Vm.Translate.run ~fuel tr cpu
        in
        (cpu, mem, step, log, ref 32, ref None))
      progs
  in
  (* [exec]'s resume rule, one run per turn *)
  let turn (cpu, _, step, _, budget, result) =
    if Option.is_none !result then
      let left = fuel - Int64.to_int (Vm.Cpu.instructions_retired cpu) in
      match if left <= 0 then Vm.Cpu.Out_of_fuel else step left with
      | Vm.Cpu.Io_out _ when !budget > 0 -> decr budget
      | Vm.Cpu.Io_in { reg; _ } when !budget > 0 ->
          Vm.Cpu.set_reg cpu reg 0x5A5AL;
          decr budget
      | e -> result := Some e
  in
  while List.exists (fun (_, _, _, _, _, r) -> Option.is_none !r) machines do
    List.iter turn machines
  done;
  List.map
    (fun (cpu, mem, _, log, _, r) -> (outcome cpu mem (Option.get !r), List.rev !log))
    machines

let arb_family =
  let open QCheck.Gen in
  let gen =
    let* mode = gen_mode in
    let* prefix = list_size (int_range 0 30) gen_instr in
    let* n = int_range 2 3 in
    let* tails = list_repeat n (list_size (int_range 1 30) gen_instr) in
    let+ sizes = list_repeat n (oneofl [ 36 * 1024; 48 * 1024; 64 * 1024 ]) in
    (mode, prefix, List.combine sizes tails)
  in
  QCheck.make
    ~print:(fun (mode, prefix, members) ->
      String.concat "\n"
        (("prefix " ^ print_program (mode, prefix))
        :: List.map
             (fun (size, tail) -> Printf.sprintf "%d bytes, tail %s" size (print_program (mode, tail)))
             members))
    gen

let family_agrees (mode, prefix, members) =
  let progs = List.map (fun (size, tail) -> (size, Encoding.encode_program (prefix @ tail))) members in
  List.for_all
    (fun hooked ->
      List.for_all2
        (fun (r, rlog) (t, tlog) -> same r t && r.pc = t.pc && rlog = tlog)
        (exec_turns ~hooked `Reference ~mode progs)
        (exec_turns ~hooked `Translate ~mode progs))
    [ false; true ]

let prop_family =
  QCheck.Test.make ~name:"one cache runs several memories in turn, in both flavours" ~count:200
    arb_family family_agrees

(* ------------------------------------------------------------------ *)
(* Directed: self-modifying code                                        *)
(* ------------------------------------------------------------------ *)

let layout instrs =
  (* pc of each instruction when the program is loaded at [origin] *)
  let _, pcs =
    List.fold_left
      (fun (pc, acc) i -> (pc + Encoding.encoded_size i, pc :: acc))
      (origin, []) instrs
  in
  List.rev pcs

let test_smc_same_block () =
  (* the store overwrites the first byte of a later instruction in the
     *same* superblock with 0x00 (hlt); both engines must halt before
     the overwritten mov executes *)
  let open Instr in
  (* program shape: [mov r1, victim][st8 [r1], 0][mov r0, 1][hlt] *)
  let shape victim =
    [ Mov (1, Imm (Int64.of_int victim)); Store (W8, 1, 0, Imm 0L); Mov (0, Imm 1L); Hlt ]
  in
  (* the victim pc depends on the mov's encoded size, which depends on
     the victim value; one fixpoint round converges (sizes stabilize) *)
  let victim = List.nth (layout (shape 0)) 2 in
  let prog = shape victim in
  assert (List.nth (layout prog) 2 = victim);
  let i, _ = both "smc same block" (Encoding.encode_program prog) in
  Alcotest.(check string) "halts" "halt" i.exit;
  Alcotest.(check int64) "overwritten mov never executed" 0L i.regs.(0)

let test_smc_cross_block () =
  (* pass 1 translates the victim block; pass 2 patches its first
     instruction from another block. The stale superblock must be
     invalidated on re-entry. *)
  let open Instr in
  let build victim patch =
    [
      Cmp (2, Imm 1L);
      Jcc (Eq, patch);
      Mov (2, Imm 1L);
      Jmp victim;
      (* patch: *)
      Mov (1, Imm (Int64.of_int victim));
      Store (W8, 1, 0, Imm 0L);
      Jmp victim;
      (* victim: *)
      Mov (0, Imm 7L);
      Jmp origin;
    ]
  in
  (* iterate the layout to a fixpoint: label addresses feed immediate
     sizes feed label addresses *)
  let rec fix victim patch n =
    let pcs = layout (build victim patch) in
    let victim' = List.nth pcs 7 and patch' = List.nth pcs 4 in
    if (victim', patch') = (victim, patch) || n = 0 then build victim' patch'
    else fix victim' patch' (n - 1)
  in
  let prog = fix 0 0 8 in
  let i, t = both "smc cross block" (Encoding.encode_program prog) in
  Alcotest.(check string) "halts" "halt" i.exit;
  Alcotest.(check int64) "pass-1 victim ran" 7L i.regs.(0);
  ignore t

let test_straddling_store_into_code () =
  (* a 16-bit store whose low byte patches the next instruction (a
     one-byte ret, into hlt) and whose high byte lands past the block's
     last byte: the partial overlap must still invalidate *)
  let open Instr in
  let shape victim = [ Mov (1, Imm (Int64.of_int victim)); Store (W16, 1, 0, Imm 0L); Ret ] in
  let victim = List.nth (layout (shape 0)) 2 in
  let i, _ = both "straddling store" (Encoding.encode_program (shape victim)) in
  Alcotest.(check string) "halts" "halt" i.exit;
  Alcotest.(check int64) "the patched ret never executed" 3L i.retired

(* ------------------------------------------------------------------ *)
(* Directed: engine mechanics                                           *)
(* ------------------------------------------------------------------ *)

let test_store_beside_code () =
  (* a loop storing to the byte just past its own last instruction, on
     its own page (the vcc crt0 heap does this): the blocks must
     survive, so nothing is re-translated after the first iteration *)
  let open Instr in
  let shape ~data ~loop =
    [
      Mov (1, Imm (Int64.of_int data));
      Mov (2, Imm 0L);
      (* loop: *)
      Store (W8, 1, 0, Reg 2);
      Bin (Add, 2, Imm 1L);
      Cmp (2, Imm 64L);
      Jcc (Lt, loop);
      Hlt;
    ]
  in
  let loop = List.nth (layout (shape ~data:0 ~loop:0)) 2 in
  let data = origin + Bytes.length (Encoding.encode_program (shape ~data:0 ~loop)) in
  assert (data / Vm.Memory.page_size = origin / Vm.Memory.page_size);
  let code = Encoding.encode_program (shape ~data ~loop) in
  let i, _ = both "store beside code" code in
  Alcotest.(check string) "halts" "halt" i.exit;
  let cpu, _ = machine code in
  let tr = Vm.Translate.create () in
  let s = Vm.Translate.stats tr in
  (* two movs and one iteration, up to entering the loop's block *)
  (match Vm.Translate.run ~fuel:6 tr cpu with
  | Vm.Cpu.Out_of_fuel -> ()
  | other -> Alcotest.failf "expected out of fuel, got %s" (exit_str other));
  let after_one = s.blocks_translated in
  (match Vm.Translate.run tr cpu with
  | Vm.Cpu.Halt -> ()
  | other -> Alcotest.failf "expected halt, got %s" (exit_str other));
  Alcotest.(check int) "no block translated after the first iteration" after_one
    s.blocks_translated;
  Alcotest.(check int) "no invalidation" 0 s.invalidations

let test_crt0_keeps_blocks () =
  (* every vcc guest's crt0 zeroes a heap that starts on the code's last
     page; before the first exit the file server's image must not
     re-translate the blocks doing it *)
  let vi =
    Option.get
      (Vcc.Compile.find_virtine (Vhttp.Fileserver.compile ~snapshot:false) "handle")
  in
  let image = vi.Vcc.Compile.image in
  let mem = Vm.Memory.create ~size:image.Wasp.Image.mem_size in
  let clock = Cycles.Clock.create () in
  Vm.Memory.write_bytes mem ~off:image.origin image.code;
  ignore
    (Vm.Boot.perform ~mem ~clock ~rng:(Cycles.Rng.create ~seed:1) ~target:image.mode);
  let cpu = Vm.Cpu.create ~mem ~mode:image.mode ~clock in
  Vm.Cpu.set_pc cpu image.entry;
  Vm.Cpu.set_sp cpu Wasp.Layout.stack_top;
  let tr = Vm.Translate.create () in
  (match Vm.Translate.run tr cpu with
  | Vm.Cpu.Io_out _ -> ()
  | other -> Alcotest.failf "expected a hypercall exit, got %s" (exit_str other));
  let n = (Vm.Translate.stats tr).blocks_translated in
  if n > 8 then Alcotest.failf "crt0 translated %d blocks before the first exit (at most 8)" n

let test_ret_into_rewritten_block () =
  (* the ret in [f] (on its own page) fills its return cache with the
     block at [ra]; a store then rewrites that block's first immediate
     (add r0, 1 -> add r0, 16) without touching [f]'s page. The second
     return must run the new bytes: r0 = 1 + 16. *)
  let open Asm in
  let f = origin + Vm.Memory.page_size in
  let add n = Instr.Bin (Instr.Add, 0, Imm n) in
  let before = Encoding.encode_program [ add 1L ] and after = Encoding.encode_program [ add 16L ] in
  let k =
    Option.get
      (List.find_opt (fun i -> Bytes.get before i <> Bytes.get after i)
         (List.init (Bytes.length before) Fun.id))
  in
  let items =
    [
      Insn (SMov (1, OLbl "ra"));
      Insn (SMov (2, OImm 0L));
      Label "loop";
      Insn (SCall (Abs f));
      Label "ra";
      Insn (SBin (Instr.Add, 0, OImm 1L));
      Insn (SBin (Instr.Add, 2, OImm 1L));
      Insn (SCmp (2, OImm 2L));
      Insn (SJcc (Instr.Lt, Lbl "patch"));
      Insn SHlt;
      Label "patch";
      Insn (SStore (Instr.W8, 1, k, OImm (Int64.of_int (Char.code (Bytes.get after k)))));
      Insn (SJmp (Lbl "loop"));
    ]
  in
  let len = Bytes.length (Asm.assemble ~origin items).Asm.code in
  let code = (Asm.assemble ~origin (items @ [ Zero (f - origin - len); Insn SRet ])).Asm.code in
  let r, _ = both "ret into a rewritten block" code in
  Alcotest.(check string) "halts" "halt" r.exit;
  Alcotest.(check int64) "the second return ran the rewritten add" 17L r.regs.(0)

let test_ret_cache_drops_removed_block () =
  (* the return target X ends at an undecodable byte. Pass 1 leaves X
     early and patches that byte (outside X's bytes, so X stays valid);
     pass 2 runs X to its end, where the now-decodable byte drops X from
     the block table; pass 3 returns to X again. A dispatched return
     would find X gone and translate it afresh, so the return cache must
     not reuse it: 8 blocks, 1 invalidation, the counts of dispatch. *)
  let open Asm in
  let f = origin + Vm.Memory.page_size and patch = origin + (2 * Vm.Memory.page_size) in
  let nop = Char.code (Bytes.get (Encoding.encode_program [ Instr.Nop ]) 0) in
  (match Encoding.decode (fun _ -> 0xFF) 0 with
  | exception Encoding.Decode_error _ -> ()
  | _ -> Alcotest.fail "0xFF must not decode");
  let patch_items = [ Insn (SStore (Instr.W8, 1, 0, OImm (Int64.of_int nop))); Insn (SJmp (Lbl "loop")) ] in
  (* the hlt after the patch block *)
  let fin =
    patch
    + Bytes.length
        (Encoding.encode_program [ Instr.Store (W8, 1, 0, Imm (Int64.of_int nop)); Instr.Jmp 0 ])
  in
  let main =
    [
      Insn (SMov (1, OLbl "bad"));
      Insn (SMov (2, OImm 0L));
      Label "loop";
      Insn (SCall (Abs f));
      (* X, the return site *)
      Insn (SBin (Instr.Add, 2, OImm 1L));
      Insn (SCmp (2, OImm 1L));
      Insn (SJcc (Instr.Eq, Abs patch));
      Insn (SCmp (2, OImm 3L));
      Insn (SJcc (Instr.Eq, Abs fin));
      Label "bad";
      Byte [ 0xFF ];
      Insn (SJmp (Lbl "loop"));
    ]
  in
  let len = Bytes.length (Asm.assemble ~origin main).Asm.code in
  let items =
    main
    @ [ Zero (f - origin - len); Insn SRet; Zero (patch - f - 1) ]
    @ patch_items @ [ Insn SHlt ]
  in
  let code = (Asm.assemble ~origin items).Asm.code in
  let r, _ = both "ret cache drops a removed block" code in
  Alcotest.(check string) "halts" "halt" r.exit;
  let cpu, _ = machine code in
  let tr = Vm.Translate.create () in
  ignore (Vm.Translate.run tr cpu);
  let s = Vm.Translate.stats tr in
  Alcotest.(check (pair int int)) "blocks translated, invalidations" (8, 1)
    (s.blocks_translated, s.invalidations)

let test_allocation_budget () =
  (* the engine's hot path allocates nothing: registers, the clock and
     the retired count are unboxed, and a return chains without the
     dispatcher. A deterministic count, not a timing: fib(20) retires
     ~2M simulated cycles, and a per-instruction box shows as >= 1 word
     per cycle. *)
  let fib = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }" in
  let c = Vcc.Compile.compile ~snapshot:false ~name:"fibbudget" fib in
  let clock = Cycles.Clock.create () in
  let fib20 () = Vcc.Compile.invoke_native ~clock c "fib" [ 20L ] () in
  ignore (fib20 ());
  let c0 = Cycles.Clock.now clock and w0 = Gc.minor_words () in
  let v = fib20 () in
  let words = Gc.minor_words () -. w0 in
  let cycles = Int64.to_float (Int64.sub (Cycles.Clock.now clock) c0) in
  Alcotest.(check int64) "fib(20)" 6765L v;
  if words /. cycles > 0.5 then
    Alcotest.failf "%.0f minor words over %.0f cycles: %.3f per cycle (budget 0.5)" words cycles
      (words /. cycles)

let test_hooked_flavour_translates () =
  let open Instr in
  let code = Encoding.encode_program [ Mov (0, Imm 1L); Nop; Nop; Hlt ] in
  let cpu, _ = machine code in
  let tr = Vm.Translate.create () in
  let prof = Profiler.Profile.create () in
  Profiler.Profile.begin_invocation prof ~symbols:[] ~clock:(Vm.Cpu.clock cpu);
  let hook_calls = ref 0 in
  Vm.Cpu.set_step_hook cpu
    (Some
       (fun ~pc ~instr ~cost ->
         incr hook_calls;
         Profiler.Profile.on_step prof ~pc ~instr ~cost));
  (match Vm.Translate.run tr cpu with
  | Vm.Cpu.Halt -> ()
  | other -> Alcotest.failf "expected halt, got %s" (exit_str other));
  Alcotest.(check int) "hook fired once per retired instruction" 4 !hook_calls;
  Alcotest.(check int64) "retired" 4L (Vm.Cpu.instructions_retired cpu);
  Alcotest.(check bool) "translated with the profiler attached" true
    ((Vm.Translate.stats tr).blocks_translated > 0);
  (* clearing the hook switches flavour: the unhooked block is compiled
     separately and the hook is no longer called *)
  Vm.Cpu.set_step_hook cpu None;
  Vm.Cpu.set_pc cpu origin;
  let before = (Vm.Translate.stats tr).blocks_translated in
  ignore (Vm.Translate.run tr cpu);
  Alcotest.(check int) "unhooked run calls no hook" 4 !hook_calls;
  Alcotest.(check bool) "flavours never share a block" true
    ((Vm.Translate.stats tr).blocks_translated > before)

let test_block_reuse_and_revalidation () =
  let open Instr in
  let code = Encoding.encode_program [ Mov (0, Imm 1L); Hlt ] in
  let cpu, mem = machine code in
  let tr = Vm.Translate.create () in
  let run () =
    Vm.Cpu.set_pc cpu origin;
    match Vm.Translate.run tr cpu with
    | Vm.Cpu.Halt -> ()
    | other -> Alcotest.failf "expected halt, got %s" (exit_str other)
  in
  run ();
  let s = Vm.Translate.stats tr in
  let after_first = s.blocks_translated in
  Alcotest.(check bool) "translated something" true (after_first > 0);
  run ();
  Alcotest.(check int) "second run reuses the cached block" after_first
    s.blocks_translated;
  Alcotest.(check int) "a valid block needs no byte compare" 0 s.revalidations;
  (* rewriting a code byte with its own value moves the page version;
     the bytes still match, so the block is revalidated, not translated *)
  Vm.Memory.write_u8 mem origin (Vm.Memory.read_u8 mem origin);
  run ();
  Alcotest.(check int) "same bytes: no retranslation" after_first s.blocks_translated;
  Alcotest.(check int) "same bytes: revalidated" 1 s.revalidations;
  (* pool-style reset: reset_zero renews the memory's tag and zeroes
     it; reloading the same bytes revalidates the block *)
  let snap = Vm.Memory.read_bytes mem ~off:origin ~len:(Bytes.length code) in
  Vm.Memory.reset_zero mem;
  Vm.Memory.write_bytes mem ~off:origin snap;
  run ();
  Alcotest.(check int) "reset_zero + same bytes: no retranslation" after_first
    s.blocks_translated;
  Alcotest.(check int) "reset_zero + same bytes: revalidated" 2 s.revalidations;
  Alcotest.(check int64) "the block ran" 1L (Vm.Cpu.get_reg cpu 0);
  (* a changed byte is translated again, and its new bytes run *)
  let code' = Encoding.encode_program [ Mov (0, Imm 2L); Hlt ] in
  assert (Bytes.length code' = Bytes.length code);
  Vm.Memory.write_bytes mem ~off:origin code';
  run ();
  Alcotest.(check bool) "changed bytes are translated again" true
    (s.blocks_translated > after_first);
  Alcotest.(check bool) "invalidation counted" true (s.invalidations > 0);
  Alcotest.(check int64) "the new bytes ran" 2L (Vm.Cpu.get_reg cpu 0)

let run_to_exit tr cpu =
  Vm.Cpu.set_pc cpu origin;
  exit_str (Vm.Translate.run tr cpu)

let test_tag_before_versions () =
  (* two fresh memories: every page at version 0 in both, but different
     bytes at the same pc. Version counters are per memory, so only the
     tag tells the first memory's block from the second's code *)
  let open Instr in
  let prog v = Encoding.encode_program [ Mov (0, Imm v); Hlt ] in
  let cpu_a, _ = machine (prog 1L) and cpu_b, _ = machine (prog 2L) in
  let tr = Vm.Translate.create () in
  List.iter
    (fun (cpu, want) ->
      Alcotest.(check string) "halts" "halt" (run_to_exit tr cpu);
      Alcotest.(check int64) "each memory runs its own code" want (Vm.Cpu.get_reg cpu 0))
    [ (cpu_a, 1L); (cpu_b, 2L); (cpu_a, 1L) ];
  let s = Vm.Translate.stats tr in
  Alcotest.(check (pair int int)) "blocks translated, revalidated" (3, 0)
    (s.blocks_translated, s.revalidations)

let test_cow_restores_keep_blocks () =
  (* a loop storing into a data word on its own code page, as
     tiny_chaos's guest does: every run dirties the page, and each CoW
     restore rewrites it and moves its version. The bytes come back
     unchanged, so 100 restores translate nothing after the first run *)
  let open Asm in
  let p =
    Asm.assemble ~origin
      [
        Insn (SMov (1, OLbl "data"));
        Insn (SMov (2, OImm 0L));
        Label "loop";
        Insn (SStore (Instr.W64, 1, 0, OReg 2));
        Insn (SBin (Instr.Add, 2, OImm 1L));
        Insn (SCmp (2, OImm 8L));
        Insn (SJcc (Instr.Lt, Lbl "loop"));
        Insn SHlt;
        Label "data";
        Zero 8;
      ]
  in
  let code = p.Asm.code and data = Asm.lookup p "data" in
  assert (data / Vm.Memory.page_size = origin / Vm.Memory.page_size);
  let cpu, mem = machine code in
  Vm.Memory.write_u64 mem data 0x5555L;
  let img = Vm.Memory.capture mem in
  Vm.Memory.clear_dirty mem;
  let tr = Vm.Translate.create () in
  let s = Vm.Translate.stats tr in
  let run () =
    Alcotest.(check string) "halts" "halt" (run_to_exit tr cpu);
    Alcotest.(check int64) "the loop ran" 8L (Vm.Cpu.get_reg cpu 2)
  in
  run ();
  let first = s.blocks_translated in
  for _ = 1 to 100 do
    let pages, _ = Vm.Memory.restore_image_cow mem img in
    Alcotest.(check int) "the code page was dirty and restored" 1 pages;
    Vm.Memory.clear_dirty mem;
    Alcotest.(check int64) "restored data" 0x5555L (Vm.Memory.read_u64 mem data);
    run ()
  done;
  Alcotest.(check int) "no block translated after the first run" first s.blocks_translated;
  Alcotest.(check bool) "every restore revalidated" true (s.revalidations >= 100)

let test_undecodable_tail_translated_again () =
  (* a block ending at an undecodable byte depends on that byte, which
     lies past its own bytes. On another memory, or on the same one
     after a pool reset, it is translated again rather than revalidated,
     so the block entries are those of a fresh cache: one, where a
     reused block would re-dispatch at the formerly bad byte. With no
     instruction before the bad byte the block is empty, has no page to
     version, and only the reset's new tag stales it *)
  let entries tr cpu =
    let log = ref [] in
    Vm.Translate.set_block_hook tr (Some (fun ~pc -> log := pc :: !log));
    let e = run_to_exit tr cpu in
    Vm.Translate.set_block_hook tr None;
    (e, List.rev !log)
  in
  let outcome = Alcotest.(pair string (list int)) in
  List.iter
    (fun lead ->
      let bad = Bytes.cat lead (Bytes.of_string "\xFF") in
      let good = Bytes.cat lead (Encoding.encode_program [ Instr.Hlt ]) in
      let fresh = entries (Vm.Translate.create ()) (fst (machine good)) in
      Alcotest.(check outcome) "a fresh cache" ("halt", [ origin ]) fresh;
      let tr = Vm.Translate.create () in
      let cpu, mem = machine bad in
      let faults () =
        Alcotest.(check bool) "the bad byte faults" true
          (String.starts_with ~prefix:"fault" (fst (entries tr cpu)))
      in
      faults ();
      Alcotest.(check outcome) "on another memory" fresh (entries tr (fst (machine good)));
      faults ();
      Vm.Memory.reset_zero mem;
      Vm.Memory.write_bytes mem ~off:origin good;
      Alcotest.(check outcome) "after a pool reset" fresh (entries tr cpu))
    [ Encoding.encode_program [ Instr.Nop; Instr.Nop ]; Bytes.empty ]

let test_block_past_smaller_memory () =
  (* a block translated on a 64 KB memory spans the end of a 36 KB one
     holding the same leading bytes: revalidation must check bounds
     first, and the smaller memory faults where the reference does *)
  let open Instr in
  let small = 36 * 1024 in
  let pc0 = small - 2 in
  let code = Encoding.encode_program [ Nop; Nop; Mov (0, Imm 0x1234L); Hlt ] in
  assert (Bytes.length code > 4);
  let at_pc0 mem_size bytes =
    let mem = Vm.Memory.create ~size:mem_size in
    Vm.Memory.write_bytes mem ~off:pc0 bytes;
    let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ()) in
    Vm.Cpu.set_pc cpu pc0;
    Vm.Cpu.set_sp cpu 0x8000;
    (cpu, mem)
  in
  let tr = Vm.Translate.create () in
  let big, _ = at_pc0 (64 * 1024) code in
  Alcotest.(check string) "the larger memory halts" "halt" (exit_str (Vm.Translate.run tr big));
  let run engine =
    let cpu, mem = at_pc0 small (Bytes.sub code 0 2) in
    let e = match engine with `Reference -> Fuzz.Reference.run cpu | `Translate -> Vm.Translate.run tr cpu in
    outcome cpu mem e
  in
  let r = run `Reference and t = run `Translate in
  check_same "past a smaller memory" r t;
  Alcotest.(check int) "faults at the same pc" r.pc t.pc;
  Alcotest.(check int) "at the first byte past the memory" small t.pc

let test_out_resumable_across_engines () =
  let open Instr in
  let prog = [ Mov (0, Imm 9L); Out (1, Reg 0); Mov (1, Reg 0); Hlt ] in
  let code = Encoding.encode_program prog in
  let drive engine =
    let cpu, _ = machine code in
    let run = runner engine cpu in
    (match run 1000 with
    | Vm.Cpu.Io_out { port = 1; value = 9L } -> ()
    | other -> Alcotest.failf "expected out exit, got %s" (exit_str other));
    Vm.Cpu.set_reg cpu 0 77L;
    (match run 1000 with
    | Vm.Cpu.Halt -> ()
    | other -> Alcotest.failf "expected halt, got %s" (exit_str other));
    (Vm.Cpu.get_reg cpu 1, Vm.Cpu.instructions_retired cpu, Cycles.Clock.now (Vm.Cpu.clock cpu))
  in
  Alcotest.(check (triple int64 int64 int64))
    "resume agrees" (drive `Reference) (drive `Translate)

let test_fuel_exhaustion_matches () =
  let open Instr in
  (* tight infinite loop: both engines must stop at the same retired
     count, cycles and pc *)
  let code = Encoding.encode_program [ Jmp origin ] in
  let drive engine =
    let cpu, _ = machine code in
    let e = runner engine cpu 1000 in
    (exit_str e, Vm.Cpu.instructions_retired cpu, Cycles.Clock.now (Vm.Cpu.clock cpu),
     Vm.Cpu.pc cpu)
  in
  let (er, rr, cr, pr) = drive `Reference and (et, rt, ct, pt) = drive `Translate in
  Alcotest.(check string) "exit" er et;
  Alcotest.(check int64) "retired" rr rt;
  Alcotest.(check int64) "cycles" cr ct;
  Alcotest.(check int) "pc" pr pt

let test_cow_mid_run () =
  (* the code and data pages start CoW-shared: the guest's stores break
     them mid-run, one of them on its own code page. The fault hook
     charges an EPT-style cost and logs the clock and pc it observes, so
     both engines must have committed exact state at every break. *)
  let open Instr in
  let prog victim =
    [
      Mov (1, Imm 0x1000L);
      Store (W64, 1, 0, Imm 7L);
      Mov (1, Imm 0x3000L);
      Store (W64, 1, 8, Imm 9L);
      Push (Imm 5L);
      Mov (1, Imm (Int64.of_int victim));
      Store (W8, 1, 0, Imm 0L);
      Mov (0, Imm 1L);
      Hlt;
    ]
  in
  (* the store patches the [mov r0, 1] into hlt *)
  let victim = List.nth (layout (prog 0)) 7 in
  assert (List.nth (layout (prog victim)) 7 = victim);
  let breaks engine =
    let log = ref [] in
    let prepare mem cpu =
      Vm.Memory.write_u64 mem 0x1000 1L;
      Vm.Memory.write_u64 mem 0x3000 2L;
      Vm.Memory.write_u64 mem 0x7000 3L;  (* the push's stack page *)
      ignore (Vm.Memory.capture mem);
      Vm.Memory.set_fault_hook mem
        (Some
           (fun ~shared ~page ->
             if shared then begin
               Cycles.Clock.advance_int (Vm.Cpu.clock cpu) 1000;
               log :=
                 (page, Cycles.Clock.now (Vm.Cpu.clock cpu), Vm.Cpu.pc cpu) :: !log
             end))
    in
    let o = exec ~prepare engine ~mode:Vm.Modes.Long ~mem_size:(64 * 1024)
        (Encoding.encode_program (prog victim)) in
    (o, List.rev !log)
  in
  let r, rlog = breaks `Reference and t, tlog = breaks `Translate in
  check_same "cow mid-run" r t;
  Alcotest.(check int) "every written shared page broke once" 4 (List.length rlog);
  Alcotest.(check (list (triple int int64 int))) "breaks observed identically" rlog tlog;
  Alcotest.(check int64) "patched mov never executed" 0L r.regs.(0)

(* ------------------------------------------------------------------ *)
(* Runtime level: CoW restore between invocations                       *)
(* ------------------------------------------------------------------ *)

(* mirrors test_wasp's snapshot image: init loop, snapshot hypercall,
   then argument-dependent work *)
let snap_image =
  Wasp.Image.of_asm_string ~name:"snap-translate"
    {|
  mov r10, 0
init:
  add r10, 1
  cmp r10, 5000
  jlt init
  mov r0, 6        ; snapshot hypercall
  out 1, r0
  mov r1, 0
  ld64 r1, [r1]
  add r1, r10
  mov r0, 0
  out 1, r0
|}

let snap_policy = Wasp.Policy.of_list [ Wasp.Hc.snapshot ]

let test_cow_restore_differential () =
  (* `Cow reset rewrites dirtied pages between invocations while the
     shell's translation cache persists: results and cycle counts must
     be the same with the profiler attached (hooked blocks) as without,
     across all three invocations *)
  let runs profiled =
    let w = Wasp.Runtime.create ~reset:`Cow () in
    if profiled then Wasp.Runtime.set_profiler w (Some (Profiler.Profile.create ()));
    List.map
      (fun arg ->
        let r =
          Wasp.Runtime.run w snap_image ~policy:snap_policy ~snapshot_key:"cowtr"
            ~args:[ arg ] ()
        in
        (r.Wasp.Runtime.return_value, r.Wasp.Runtime.cycles, r.Wasp.Runtime.from_snapshot))
      [ 1L; 2L; 3L ]
  in
  let unhooked = runs false and hooked = runs true in
  List.iteri
    (fun i ((rv_u, cyc_u, snap_u), (rv_h, cyc_h, snap_h)) ->
      Alcotest.(check int64) (Printf.sprintf "run %d return value" i) rv_h rv_u;
      Alcotest.(check int64) (Printf.sprintf "run %d cycles" i) cyc_h cyc_u;
      Alcotest.(check bool) (Printf.sprintf "run %d from_snapshot" i) snap_h snap_u)
    (List.combine unhooked hooked);
  (* sanity: the workload actually exercised the snapshot path *)
  match unhooked with
  | [ (rv1, _, s1); (rv2, _, s2); _ ] ->
      Alcotest.(check int64) "first run computed" 5001L rv1;
      Alcotest.(check int64) "second run restored" 5002L rv2;
      Alcotest.(check bool) "snapshot flags" true ((not s1) && s2)
  | _ -> assert false

let () =
  Alcotest.run "translate"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_differential; prop_hooked; prop_code_page; prop_stack_paths; prop_family ]
        @ [
            Alcotest.test_case "smc same block" `Quick test_smc_same_block;
            Alcotest.test_case "smc cross block" `Quick test_smc_cross_block;
            Alcotest.test_case "straddling store into code invalidates" `Quick
              test_straddling_store_into_code;
            Alcotest.test_case "out resumable" `Quick test_out_resumable_across_engines;
            Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion_matches;
            Alcotest.test_case "cow mid-run" `Quick test_cow_mid_run;
            Alcotest.test_case "ret into a block rewritten after the cache filled" `Quick
              test_ret_into_rewritten_block;
          ] );
      ( "engine",
        [
          Alcotest.test_case "hooked flavour translates" `Quick test_hooked_flavour_translates;
          Alcotest.test_case "reuse + invalidation" `Quick
            test_block_reuse_and_revalidation;
          Alcotest.test_case "the memory's tag is checked before its versions" `Quick
            test_tag_before_versions;
          Alcotest.test_case "CoW restores of a shared code page keep its blocks" `Quick
            test_cow_restores_keep_blocks;
          Alcotest.test_case "a block past a smaller memory's end" `Quick
            test_block_past_smaller_memory;
          Alcotest.test_case "an undecodable tail is translated again" `Quick
            test_undecodable_tail_translated_again;
          Alcotest.test_case "store beside code keeps the block" `Quick
            test_store_beside_code;
          Alcotest.test_case "vcc crt0 keeps its blocks" `Quick test_crt0_keeps_blocks;
          Alcotest.test_case "ret cache drops a block the table dropped" `Quick
            test_ret_cache_drops_removed_block;
          Alcotest.test_case "allocation budget: fib(20) natively" `Quick test_allocation_budget;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "cow restore differential" `Quick
            test_cow_restore_differential;
        ] );
    ]
