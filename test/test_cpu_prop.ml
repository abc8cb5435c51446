(* Property-based differential testing of the CPU: single instructions
   executed on the vx CPU must agree with a reference model of the
   architecture (mode-width truncation, sign semantics, flag behaviour). *)

let gen_mode = QCheck.Gen.oneofl [ Vm.Modes.Real; Vm.Modes.Protected; Vm.Modes.Long ]

let gen_value = QCheck.Gen.(map Int64.of_int int)

let gen_binop =
  QCheck.Gen.oneofl [ Instr.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sar ]

let print_case (mode, op, a, b) =
  Printf.sprintf "%s: r0=%Ld %s r1=%Ld" (Vm.Modes.to_string mode)
    a
    (match (op : Instr.binop) with
    | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
    | And -> "&" | Or -> "|" | Xor -> "^" | Shl -> "<<" | Shr -> ">>" | Sar -> ">>a")
    b

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(
      let* mode = gen_mode in
      let* op = gen_binop in
      let* a = gen_value in
      let* b = gen_value in
      return (mode, op, a, b))

(* hardware masks shift counts to the operand width: 31 outside long mode *)
let shift_mask = function
  | Vm.Modes.Real | Vm.Modes.Protected -> 31L
  | Vm.Modes.Long -> 63L

(* the reference: mode-masked storage, sign-extended signed operations *)
let reference mode (op : Instr.binop) a b : int64 option =
  let open Int64 in
  let m v = Vm.Modes.mask mode v in
  let s v = Vm.Modes.sext mode (m v) in
  let a' = m a and b' = m b in
  let result =
    match op with
    | Add -> Some (add a' b')
    | Sub -> Some (sub a' b')
    | Mul -> Some (mul a' b')
    | Div -> if s b = 0L then None else Some (div (s a) (s b))
    | Rem -> if s b = 0L then None else Some (rem (s a) (s b))
    | And -> Some (logand a' b')
    | Or -> Some (logor a' b')
    | Xor -> Some (logxor a' b')
    | Shl -> Some (shift_left a' (to_int (logand b' (shift_mask mode))))
    | Shr -> Some (shift_right_logical a' (to_int (logand b' (shift_mask mode))))
    | Sar -> Some (shift_right (s a) (to_int (logand b' (shift_mask mode))))
  in
  Option.map m result

(* execute on the engine every production caller runs *)
let run_cpu ?fuel cpu = Vm.Translate.run ?fuel (Vm.Translate.create ()) cpu

let execute mode op a b =
  let mem = Vm.Memory.create ~size:4096 in
  let prog =
    Encoding.encode_program [ Instr.Bin (op, 0, Instr.Reg 1); Instr.Hlt ]
  in
  Vm.Memory.write_bytes mem ~off:0 prog;
  let cpu = Vm.Cpu.create ~mem ~mode ~clock:(Cycles.Clock.create ()) in
  Vm.Cpu.set_reg cpu 0 a;
  Vm.Cpu.set_reg cpu 1 b;
  match run_cpu cpu with
  | Vm.Cpu.Halt -> Some (Vm.Cpu.get_reg cpu 0)
  | Vm.Cpu.Fault (Vm.Cpu.Division_by_zero _) -> None
  | other -> failwith (Format.asprintf "unexpected exit %a" Vm.Cpu.pp_exit other)

let prop_binop_matches_reference =
  QCheck.Test.make ~name:"binary ops match the reference model" ~count:3000 arb_case
    (fun (mode, op, a, b) -> execute mode op a b = reference mode op a b)

let prop_storage_always_masked =
  QCheck.Test.make ~name:"register storage is always mode-masked" ~count:1000 arb_case
    (fun (mode, op, a, b) ->
      match execute mode op a b with
      | Some v -> v = Vm.Modes.mask mode v
      | None -> true)

(* comparisons: flags then a conditional jump, vs the reference *)
let gen_cond = QCheck.Gen.oneofl [ Instr.Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ]

let reference_cond mode (c : Instr.cond) a b =
  let m v = Vm.Modes.mask mode v in
  let s v = Vm.Modes.sext mode (m v) in
  let signed = Int64.compare (s a) (s b) in
  let unsigned = Int64.unsigned_compare (m a) (m b) in
  match c with
  | Eq -> signed = 0
  | Ne -> signed <> 0
  | Lt -> signed < 0
  | Le -> signed <= 0
  | Gt -> signed > 0
  | Ge -> signed >= 0
  | Ult -> unsigned < 0
  | Ule -> unsigned <= 0
  | Ugt -> unsigned > 0
  | Uge -> unsigned >= 0

let prop_conditions_match_reference =
  QCheck.Test.make ~name:"conditional branches match the reference model" ~count:3000
    (QCheck.make
       QCheck.Gen.(
         let* mode = gen_mode in
         let* c = gen_cond in
         let* a = gen_value in
         let* b = gen_value in
         return (mode, c, a, b)))
    (fun (mode, c, a, b) ->
      let mem = Vm.Memory.create ~size:4096 in
      (* cmp r0, r1; jcc taken; mov r2, 0; hlt; taken: mov r2, 1; hlt *)
      let items =
        [
          Asm.Insn (Asm.SCmp (0, Asm.OReg 1));
          Asm.Insn (Asm.SJcc (c, Asm.Lbl "taken"));
          Asm.Insn (Asm.SMov (2, Asm.OImm 0L));
          Asm.Insn Asm.SHlt;
          Asm.Label "taken";
          Asm.Insn (Asm.SMov (2, Asm.OImm 1L));
          Asm.Insn Asm.SHlt;
        ]
      in
      let p = Asm.assemble ~origin:0 items in
      Vm.Memory.write_bytes mem ~off:0 p.Asm.code;
      let cpu = Vm.Cpu.create ~mem ~mode ~clock:(Cycles.Clock.create ()) in
      Vm.Cpu.set_reg cpu 0 a;
      Vm.Cpu.set_reg cpu 1 b;
      match run_cpu cpu with
      | Vm.Cpu.Halt ->
          let taken = Vm.Cpu.get_reg cpu 2 = 1L in
          taken = reference_cond mode c a b
      | _ -> false)

(* loads/stores: store then load roundtrips through memory with the
   right width truncation *)
let prop_store_load_roundtrip =
  QCheck.Test.make ~name:"store/load roundtrips with width truncation" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         let* w = oneofl [ Instr.W8; W16; W32; W64 ] in
         let* v = gen_value in
         return (w, v)))
    (fun (w, v) ->
      let mem = Vm.Memory.create ~size:4096 in
      let prog =
        Encoding.encode_program
          [
            Instr.Store (w, 1, 0, Instr.Reg 0);
            Instr.Load (w, 2, 1, 0);
            Instr.Hlt;
          ]
      in
      Vm.Memory.write_bytes mem ~off:0 prog;
      let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ()) in
      Vm.Cpu.set_reg cpu 0 v;
      Vm.Cpu.set_reg cpu 1 256L;
      match run_cpu cpu with
      | Vm.Cpu.Halt ->
          let expected =
            match w with
            | Instr.W8 -> Int64.logand v 0xFFL
            | Instr.W16 -> Int64.logand v 0xFFFFL
            | Instr.W32 -> Int64.logand v 0xFFFFFFFFL
            | Instr.W64 -> v
          in
          Vm.Cpu.get_reg cpu 2 = expected
      | _ -> false)

(* random instruction streams never escape guest memory or crash the
   host: every exit is a defined exit reason *)
let prop_random_streams_contained =
  QCheck.Test.make ~name:"random byte streams are contained" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 1 256))
    (fun blob ->
      let mem = Vm.Memory.create ~size:(64 * 1024) in
      Vm.Memory.write_bytes mem ~off:0x100 (Bytes.of_string blob);
      let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ()) in
      Vm.Cpu.set_pc cpu 0x100;
      Vm.Cpu.set_sp cpu 0x8000;
      match run_cpu ~fuel:10_000 cpu with
      | Vm.Cpu.Halt | Vm.Cpu.Io_out _ | Vm.Cpu.Io_in _ | Vm.Cpu.Fault _ | Vm.Cpu.Out_of_fuel
        ->
          true)

let () =
  Alcotest.run "cpu-properties"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_binop_matches_reference;
            prop_storage_always_masked;
            prop_conditions_match_reference;
            prop_store_load_roundtrip;
            prop_random_streams_contained;
          ] );
    ]
