let elapsed sys f =
  let clock = Kvmsim.Kvm.clock sys in
  let start = Cycles.Clock.now clock in
  f ();
  Cycles.Clock.elapsed_since clock start

let charge sys ~pct cost =
  let clock = Kvmsim.Kvm.clock sys and rng = Kvmsim.Kvm.rng sys in
  Cycles.Clock.advance_int clock (Cycles.Costs.jitter rng ~pct cost)

let function_call sys = elapsed sys (fun () -> charge sys ~pct:0.10 Cycles.Costs.function_call)

let pthread_create_join sys =
  elapsed sys (fun () -> charge sys ~pct:0.12 Cycles.Costs.pthread_spawn_join)

let process_spawn sys = elapsed sys (fun () -> charge sys ~pct:0.15 Cycles.Costs.process_spawn)

let hlt_image = Encoding.encode_program [ Instr.Hlt ]

let kvm_cold sys =
  elapsed sys (fun () ->
      let vm = Kvmsim.Kvm.create_vm sys in
      let mem = Kvmsim.Kvm.set_user_memory_region vm ~size:(64 * 1024) in
      let vcpu = Kvmsim.Kvm.create_vcpu vm ~mode:Vm.Modes.Real in
      Vm.Memory.write_bytes mem ~off:0 hlt_image;
      match Kvmsim.Kvm.run vcpu with
      | Vm.Cpu.Halt -> ()
      | _ -> failwith "kvm_cold: expected hlt")

module Vmrun_floor = struct
  type t = { vcpu : Kvmsim.Kvm.vcpu; sys : Kvmsim.Kvm.system }

  let prepare sys =
    let vm = Kvmsim.Kvm.create_vm sys in
    let mem = Kvmsim.Kvm.set_user_memory_region vm ~size:4096 in
    let vcpu = Kvmsim.Kvm.create_vcpu vm ~mode:Vm.Modes.Real in
    Vm.Memory.write_bytes mem ~off:0 hlt_image;
    { vcpu; sys }

  let measure t =
    elapsed t.sys (fun () ->
        Vm.Cpu.set_pc (Kvmsim.Kvm.vcpu_cpu t.vcpu) 0;
        match Kvmsim.Kvm.run t.vcpu with
        | Vm.Cpu.Halt -> ()
        | _ -> failwith "vmrun: expected hlt")
end

module Sgx = struct
  let create sys ~enclave_kb =
    elapsed sys (fun () ->
        charge sys ~pct:0.08 Cycles.Costs.sgx_ecreate;
        let pages = (enclave_kb + 3) / 4 in
        charge sys ~pct:0.05 (pages * Cycles.Costs.sgx_eadd_page);
        charge sys ~pct:0.08 Cycles.Costs.sgx_einit)

  let ecall sys = elapsed sys (fun () -> charge sys ~pct:0.10 Cycles.Costs.sgx_ecall)
end
