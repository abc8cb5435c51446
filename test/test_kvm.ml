(* Tests for the simulated KVM host interface. *)

let hlt = Encoding.encode_program [ Instr.Hlt ]

let setup ?(mode = Vm.Modes.Long) ?(size = 64 * 1024) () =
  let sys = Kvmsim.Kvm.open_dev ~seed:9 () in
  let vm = Kvmsim.Kvm.create_vm sys in
  let mem = Kvmsim.Kvm.set_user_memory_region vm ~size in
  let vcpu = Kvmsim.Kvm.create_vcpu vm ~mode in
  (sys, vm, mem, vcpu)

let test_lifecycle_costs_charged () =
  let sys = Kvmsim.Kvm.open_dev ~seed:9 () in
  let t0 = Cycles.Clock.now (Kvmsim.Kvm.clock sys) in
  let vm = Kvmsim.Kvm.create_vm sys in
  let t1 = Cycles.Clock.now (Kvmsim.Kvm.clock sys) in
  Alcotest.(check bool) "create_vm expensive" true
    (Int64.to_int (Int64.sub t1 t0) > 100_000);
  let _mem = Kvmsim.Kvm.set_user_memory_region vm ~size:4096 in
  let _vcpu = Kvmsim.Kvm.create_vcpu vm ~mode:Vm.Modes.Real in
  Alcotest.(check bool) "further charges" true
    (Cycles.Clock.now (Kvmsim.Kvm.clock sys) > t1)

let test_run_hlt () =
  let _, _, mem, vcpu = setup () in
  Vm.Memory.write_bytes mem ~off:0 hlt;
  match Kvmsim.Kvm.run vcpu with
  | Vm.Cpu.Halt -> ()
  | _ -> Alcotest.fail "expected hlt"

let test_run_charges_round_trip () =
  let sys, _, mem, vcpu = setup () in
  Vm.Memory.write_bytes mem ~off:0 hlt;
  let t0 = Cycles.Clock.now (Kvmsim.Kvm.clock sys) in
  ignore (Kvmsim.Kvm.run vcpu);
  let spent = Int64.to_int (Int64.sub (Cycles.Clock.now (Kvmsim.Kvm.clock sys)) t0) in
  (* ioctl + checks + entry + exit ~= 9.5K *)
  Alcotest.(check bool) (Printf.sprintf "round trip %d in [6K,16K]" spent) true
    (spent > 6_000 && spent < 16_000)

let test_io_exit_and_resume () =
  let _, _, mem, vcpu = setup () in
  Vm.Memory.write_bytes mem ~off:0
    (Encoding.encode_program [ Instr.Mov (0, Instr.Imm 5L); Instr.Out (1, Instr.Reg 0); Instr.Hlt ]);
  (match Kvmsim.Kvm.run vcpu with
  | Vm.Cpu.Io_out { port = 1; value = 5L } -> ()
  | _ -> Alcotest.fail "expected io exit");
  match Kvmsim.Kvm.run vcpu with
  | Vm.Cpu.Halt -> ()
  | _ -> Alcotest.fail "expected hlt after resume"

let test_fault_exit () =
  let _, _, mem, vcpu = setup ~size:4096 () in
  Vm.Memory.write_bytes mem ~off:0
    (Encoding.encode_program
       [ Instr.Mov (1, Instr.Imm 0x100000L); Instr.Load (Instr.W64, 0, 1, 0); Instr.Hlt ]);
  match Kvmsim.Kvm.run vcpu with
  | Vm.Cpu.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault exit"

let test_stats_counters () =
  let sys, _, mem, vcpu = setup () in
  Vm.Memory.write_bytes mem ~off:0
    (Encoding.encode_program [ Instr.Out (1, Instr.Imm 1L); Instr.Hlt ]);
  ignore (Kvmsim.Kvm.run vcpu);
  ignore (Kvmsim.Kvm.run vcpu);
  let st = Kvmsim.Kvm.stats sys in
  Alcotest.(check int) "vm count" 1 st.Kvmsim.Kvm.vm_creations;
  Alcotest.(check int) "vcpu count" 1 st.Kvmsim.Kvm.vcpu_creations;
  Alcotest.(check int) "runs" 2 st.Kvmsim.Kvm.runs;
  Alcotest.(check int) "io exits" 1 st.Kvmsim.Kvm.io_exits

let test_memory_region_required () =
  let sys = Kvmsim.Kvm.open_dev ~seed:9 () in
  let vm = Kvmsim.Kvm.create_vm sys in
  match Kvmsim.Kvm.vm_memory vm with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument without a region"

let test_reset_vcpu_clears_state () =
  let _, _, mem, vcpu = setup () in
  Vm.Memory.write_bytes mem ~off:0
    (Encoding.encode_program [ Instr.Mov (3, Instr.Imm 99L); Instr.Hlt ]);
  ignore (Kvmsim.Kvm.run vcpu);
  let cpu = Kvmsim.Kvm.vcpu_cpu vcpu in
  Alcotest.(check int64) "ran" 99L (Vm.Cpu.get_reg cpu 3);
  Kvmsim.Kvm.reset_vcpu vcpu ~mode:Vm.Modes.Real;
  Alcotest.(check int64) "cleared" 0L (Vm.Cpu.get_reg cpu 3);
  Alcotest.(check int) "pc reset" 0 (Vm.Cpu.pc cpu);
  Alcotest.(check bool) "mode switched" true (Vm.Cpu.mode cpu = Vm.Modes.Real)

let test_out_of_fuel_exit () =
  let _, _, mem, vcpu = setup () in
  Vm.Memory.write_bytes mem ~off:0 (Encoding.encode_program [ Instr.Jmp 0 ]);
  match Kvmsim.Kvm.run ~fuel:50 vcpu with
  | Vm.Cpu.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out of fuel"

let test_deterministic_given_seed () =
  let run_once () =
    let sys, _, mem, vcpu = setup () in
    Vm.Memory.write_bytes mem ~off:0 hlt;
    ignore (Kvmsim.Kvm.run vcpu);
    Cycles.Clock.now (Kvmsim.Kvm.clock sys)
  in
  Alcotest.(check int64) "bit identical across runs" (run_once ()) (run_once ())

(* The file servers on a 2-core runtime: both cores' shells recycle
   through pool cleaning and run on the system's one translation cache.
   [serve core c] runs one request on [core]'s shard. *)
let file_servers () =
  let classic = Vhttp.Fileserver.compile ~snapshot:false in
  let ring = Vhttp.Fileserver.compile_ring ~snapshot:false in
  let w = Wasp.Runtime.create ~seed:1 ~cores:2 () in
  let path = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let serve core c =
    Wasp.Runtime.on_core w core;
    let s = Vhttp.Fileserver.serve_virtine w c ~path in
    Alcotest.(check int) "served" 200 s.Vhttp.Fileserver.status
  in
  (Wasp.Runtime.kvm w, serve, classic, ring)

let test_recycled_shell_keeps_blocks () =
  (* a recycled shell that runs the same image again translates
     nothing: every block it enters is revalidated against the bytes
     loaded after pool cleaning *)
  let sys, serve, classic, ring = file_servers () in
  List.iter (fun (core, c) -> serve core c) [ (0, classic); (1, ring); (0, ring); (1, classic) ];
  List.iter
    (fun (core, c) ->
      serve core c;
      let before = Kvmsim.Kvm.translation_stats sys in
      let shells = (Kvmsim.Kvm.stats sys).Kvmsim.Kvm.vm_creations in
      serve core c;
      let after = Kvmsim.Kvm.translation_stats sys in
      Alcotest.(check int) "the same shell" shells (Kvmsim.Kvm.stats sys).Kvmsim.Kvm.vm_creations;
      Alcotest.(check int) "no block translated" before.Vm.Translate.blocks_translated
        after.Vm.Translate.blocks_translated;
      Alcotest.(check bool) "its blocks revalidated" true
        (after.Vm.Translate.revalidations > before.Vm.Translate.revalidations))
    [ (0, classic); (1, ring); (1, classic); (0, ring) ]

let test_alternating_images_keep_blocks () =
  (* the two handlers load at one origin and differ in a few blocks at
     the same pcs. Each key keeps a way per image, so once each image
     has run, serving them alternately on both cores translates nothing *)
  let sys, serve, classic, ring = file_servers () in
  let translated () = (Kvmsim.Kvm.translation_stats sys).Vm.Translate.blocks_translated in
  serve 0 classic;
  serve 1 ring;
  let before = translated () in
  for i = 0 to 11 do
    serve (i / 2 mod 2) (if i mod 2 = 0 then classic else ring)
  done;
  Alcotest.(check int) "no block translated" before (translated ())

(* A budget for what the shared cache retains: the heap reachable from
   the file servers' blocks between runs, when no vCPU or memory is
   bound. Measured at 19,596 words (OCaml 5.1) after the 40 requests
   below, alternating handlers and cores; the budget is that +25%. *)
let retention_budget = 24_495

let test_translation_retention () =
  let sys, serve, classic, ring = file_servers () in
  for i = 0 to 39 do
    serve (i mod 2) (if i / 2 mod 2 = 0 then classic else ring)
  done;
  let words = Kvmsim.Kvm.translation_words sys in
  if words > retention_budget then
    Alcotest.failf "the translation cache retains %d words (budget %d)" words retention_budget

let () =
  Alcotest.run "kvmsim"
    [
      ( "kvm",
        [
          Alcotest.test_case "lifecycle costs" `Quick test_lifecycle_costs_charged;
          Alcotest.test_case "run hlt" `Quick test_run_hlt;
          Alcotest.test_case "run round-trip cost" `Quick test_run_charges_round_trip;
          Alcotest.test_case "io exit + resume" `Quick test_io_exit_and_resume;
          Alcotest.test_case "fault exit" `Quick test_fault_exit;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "memory region required" `Quick test_memory_region_required;
          Alcotest.test_case "vcpu reset" `Quick test_reset_vcpu_clears_state;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel_exit;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          Alcotest.test_case "a recycled shell keeps its blocks" `Quick
            test_recycled_shell_keeps_blocks;
          Alcotest.test_case "alternating images keep their blocks" `Quick
            test_alternating_images_keep_blocks;
          Alcotest.test_case "retention budget of the translation cache" `Quick
            test_translation_retention;
        ] );
    ]
