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
   the way each engine takes it (a Cpu step hook for the translator). *)
let runner ?(hook : hook option) engine cpu =
  match engine with
  | `Reference -> fun fuel -> Fuzz.Reference.run ~fuel ?hook cpu
  | `Translate ->
      Option.iter (Vm.Cpu.set_step_hook cpu) hook;
      let tr = Vm.Translate.create cpu in
      fun fuel -> Vm.Translate.run ~fuel tr

(* Run [code] to completion under one engine, resuming deterministically
   through a bounded number of I/O exits ([in] deposits a constant). *)
let exec ?hook ?prepare engine ~mode ~mem_size code =
  let cpu, mem = machine ~mode ~mem_size ?prepare code in
  let clock = Vm.Cpu.clock cpu in
  let step = runner ?hook engine cpu in
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
  {
    exit = exit_str e;
    regs = Array.init Instr.num_regs (Vm.Cpu.get_reg cpu);
    mem = Vm.Memory.snapshot mem;
    retired = Vm.Cpu.instructions_retired cpu;
    cycles = Cycles.Clock.now clock;
  }

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

let prop_differential =
  QCheck.Test.make ~name:"random programs agree across engines" ~count:400 arb_program
    (fun (mode, instrs) ->
      let code = Encoding.encode_program instrs in
      let mem_size = 64 * 1024 in
      same (exec `Reference ~mode ~mem_size code) (exec `Translate ~mode ~mem_size code))

(* The hooked flavour: a recording step hook must see the same
   (pc, instr, cost, Clock.now) sequence under the translator as under
   the reference stepper, and the run must end identically. *)
let prop_hooked =
  QCheck.Test.make ~name:"hooked flavour matches the reference hook sequence" ~count:400
    arb_program (fun (mode, instrs) ->
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
      same r t && rlog = tlog)

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

(* ------------------------------------------------------------------ *)
(* Directed: engine mechanics                                           *)
(* ------------------------------------------------------------------ *)

let test_hooked_flavour_translates () =
  let open Instr in
  let code = Encoding.encode_program [ Mov (0, Imm 1L); Nop; Nop; Hlt ] in
  let cpu, _ = machine code in
  let tr = Vm.Translate.create cpu in
  let prof = Profiler.Profile.create () in
  Profiler.Profile.begin_invocation prof ~symbols:[] ~clock:(Vm.Cpu.clock cpu);
  let hook_calls = ref 0 in
  Vm.Cpu.set_step_hook cpu (fun ~pc ~instr ~cost ->
      incr hook_calls;
      Profiler.Profile.on_step prof ~pc ~instr ~cost);
  (match Vm.Translate.run tr with
  | Vm.Cpu.Halt -> ()
  | other -> Alcotest.failf "expected halt, got %s" (exit_str other));
  Alcotest.(check int) "hook fired once per retired instruction" 4 !hook_calls;
  Alcotest.(check int64) "retired" 4L (Vm.Cpu.instructions_retired cpu);
  Alcotest.(check bool) "translated with the profiler attached" true
    ((Vm.Translate.stats tr).blocks_translated > 0);
  (* clearing the hook switches flavour: the unhooked block is compiled
     separately and the hook is no longer called *)
  Vm.Cpu.clear_step_hook cpu;
  Vm.Cpu.set_pc cpu origin;
  let before = (Vm.Translate.stats tr).blocks_translated in
  ignore (Vm.Translate.run tr);
  Alcotest.(check int) "unhooked run calls no hook" 4 !hook_calls;
  Alcotest.(check bool) "flavours never share a block" true
    ((Vm.Translate.stats tr).blocks_translated > before)

let test_block_reuse_and_invalidation () =
  let open Instr in
  let code = Encoding.encode_program [ Mov (0, Imm 1L); Hlt ] in
  let cpu, mem = machine code in
  let tr = Vm.Translate.create cpu in
  let run () =
    Vm.Cpu.set_pc cpu origin;
    match Vm.Translate.run tr with
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
  (* rewriting a code byte (same value, new version) must invalidate *)
  Vm.Memory.write_u8 mem origin (Vm.Memory.read_u8 mem origin);
  run ();
  Alcotest.(check bool) "write to code page forces retranslation" true
    (s.blocks_translated > after_first);
  Alcotest.(check bool) "invalidation counted" true (s.invalidations > 0);
  (* pool-style reset: epoch bump flushes everything *)
  let snap = Vm.Memory.read_bytes mem ~off:origin ~len:(Bytes.length code) in
  let before_reset = s.blocks_translated in
  Vm.Memory.reset_zero mem;
  Vm.Memory.write_bytes mem ~off:origin snap;
  run ();
  Alcotest.(check bool) "epoch bump forces retranslation" true
    (s.blocks_translated > before_reset)

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
        List.map QCheck_alcotest.to_alcotest [ prop_differential; prop_hooked ]
        @ [
            Alcotest.test_case "smc same block" `Quick test_smc_same_block;
            Alcotest.test_case "smc cross block" `Quick test_smc_cross_block;
            Alcotest.test_case "out resumable" `Quick test_out_resumable_across_engines;
            Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion_matches;
            Alcotest.test_case "cow mid-run" `Quick test_cow_mid_run;
          ] );
      ( "engine",
        [
          Alcotest.test_case "hooked flavour translates" `Quick test_hooked_flavour_translates;
          Alcotest.test_case "reuse + invalidation" `Quick
            test_block_reuse_and_invalidation;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "cow restore differential" `Quick
            test_cow_restore_differential;
        ] );
    ]
