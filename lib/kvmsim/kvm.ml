type system = {
  clocks : Cycles.Clock.t array;  (* one virtual clock per simulated core *)
  mutable cur : int;              (* core charged by subsequent operations *)
  rng : Cycles.Rng.t;
  stats : stats;
  mutable telemetry : Telemetry.Hub.t option;
  mutable flight : Profiler.Flight.t option;
  mutable active_cpu : Vm.Cpu.t option;
      (* vCPU inside KVM_RUN right now: EPT violations taken from guest
         stores are stamped with its PC in the flight ring *)
  mutable plan : Cycles.Fault_plan.t option;
  mutable probes : Vtrace.Engine.t option;
  mutable hc_port : int option;
      (* the hypercall port, when a runtime above us declared one:
         Io_out exits on it fire vtrace "exit" probes as "hypercall" *)
  mutable block_probe : (pc:int -> unit) option;
      (* prebuilt superblock-entry observer, installed on each vCPU's
         translation cache while running; None unless a block probe is
         attached *)
  exit_reasons : (string, int ref) Hashtbl.t;
      (* always-on per-reason exit tally (the kvm_exits_total{reason}
         series without needing a telemetry hub) — the fuzzer's
         exit-edge coverage signal reads it after every candidate *)
}

and stats = {
  mutable vm_creations : int;
  mutable vcpu_creations : int;
  mutable runs : int;
  mutable io_exits : int;
  mutable fault_exits : int;
  mutable ept_violations : int;
  mutable injected_faults : int;
}

exception Injected_failure of string

let site_spurious_exit = "spurious_exit"
let site_ept_storm = "ept_storm"
let site_provision_fail = "provision_fail"
let site_guest_hang = "guest_hang"
let site_snapshot_corrupt = "snapshot_corrupt"
let site_ring_corrupt = "ring_corrupt"

type vm = { sys : system; mutable memory : Vm.Memory.t option }

type vcpu = { parent : vm; cpu : Vm.Cpu.t; trans : Vm.Translate.t }

type run_exit =
  | Hlt
  | Io_out of { port : int; value : int64 }
  | Io_in of { port : int; reg : Instr.reg }
  | Fault of Vm.Cpu.fault
  | Out_of_fuel

let open_dev ?(seed = 0x5eed) ?freq_ghz ?(cores = 1) () =
  if cores < 1 then invalid_arg "Kvm.open_dev: cores must be >= 1";
  {
    clocks = Array.init cores (fun _ -> Cycles.Clock.create ?freq_ghz ());
    cur = 0;
    rng = Cycles.Rng.create ~seed;
    stats =
      {
        vm_creations = 0;
        vcpu_creations = 0;
        runs = 0;
        io_exits = 0;
        fault_exits = 0;
        ept_violations = 0;
        injected_faults = 0;
      };
    telemetry = None;
    flight = None;
    active_cpu = None;
    plan = None;
    probes = None;
    hc_port = None;
    block_probe = None;
    exit_reasons = Hashtbl.create 8;
  }

let clock sys = sys.clocks.(sys.cur)
let cores sys = Array.length sys.clocks
let current_core sys = sys.cur

let core_clock sys core =
  if core < 0 || core >= Array.length sys.clocks then invalid_arg "Kvm.core_clock: no such core";
  sys.clocks.(core)

let set_core sys core =
  if core < 0 || core >= Array.length sys.clocks then invalid_arg "Kvm.set_core: no such core";
  sys.cur <- core;
  match sys.telemetry with
  | Some h ->
      Telemetry.Hub.set_clock h sys.clocks.(core);
      Telemetry.Hub.set_core h core
  | None -> ()

let rng sys = sys.rng
let stats sys = sys.stats

let set_telemetry sys hub = sys.telemetry <- hub
let telemetry sys = sys.telemetry
let set_flight sys fr = sys.flight <- fr
let flight sys = sys.flight

let set_fault_plan sys plan = sys.plan <- plan
let fault_plan sys = sys.plan

(* Trace id of the request currently on-CPU, so black-box entries and
   probe contexts are greppable by trace. None when tracing is off or no
   span is open. *)
let active_trace sys =
  match sys.telemetry with
  | None -> None
  | Some h -> Telemetry.Hub.current_trace h

let fire sys ?fn ?pc ?reason ?cycles ?fuel ?nr site =
  match sys.probes with
  | None -> 0
  | Some e ->
      Vtrace.Engine.fire e
        (Vtrace.Ctx.make ~core:sys.cur ?trace:(active_trace sys) ?fn ?pc ?reason ?cycles
           ?fuel ?nr site)

let set_hc_port sys port = sys.hc_port <- port

let set_probes sys e =
  sys.probes <- e;
  sys.block_probe <-
    (match e with
    | Some eng when Vtrace.Engine.wants eng "block" ->
        Some (fun ~pc -> ignore (fire sys ~pc "block"))
    | _ -> None)

let probes sys = sys.probes

let active_pc sys = match sys.active_cpu with Some cpu -> Vm.Cpu.pc cpu | None -> 0

(* The vtrace site, reason and [nr] each KVM event fires with. *)
let classify sys : Profiler.Flight.kind -> string * string * int64 = function
  | Halt -> ("exit", "hlt", 0L)
  | Io_out { port; value } -> (
      match sys.hc_port with
      | Some p when p = port -> ("exit", "hypercall", value)
      | _ -> ("exit", "io_out", Int64.of_int port))
  | Io_in { port } -> ("exit", "io_in", Int64.of_int port)
  | Fault _ -> ("exit", "fault", 0L)
  | Fuel -> ("exit", "fuel", 0L)
  | Ept { page } -> ("ept", "cow_break", Int64.of_int page)
  | Injected site -> ("inject", site, 0L)

(* Every KVM-level event — a KVM_RUN return, a CoW break, a fault-plan
   injection — fans out from here to each observer, in a fixed order:
   the always-on [stats]/[exit_reasons] tally, the hub counters, the
   flight ring, then the vtrace site. Observing charges no cycles. For
   exits, [cycles] is the KVM_RUN's entry-to-exit duration; the vtrace
   fire runs after the flight entry so a matching exit probe can stamp
   it. *)
let observe sys ~pc ?cycles ?fuel (kind : Profiler.Flight.kind) =
  let site, reason, nr = classify sys kind in
  let is_exit = String.equal site "exit" in
  let st = sys.stats in
  (match kind with
  | Io_out _ | Io_in _ -> st.io_exits <- st.io_exits + 1
  | Fault _ -> st.fault_exits <- st.fault_exits + 1
  | Ept _ -> st.ept_violations <- st.ept_violations + 1
  | Injected _ -> st.injected_faults <- st.injected_faults + 1
  | Halt | Fuel -> ());
  if is_exit then begin
    match Hashtbl.find_opt sys.exit_reasons reason with
    | Some r -> incr r
    | None -> Hashtbl.replace sys.exit_reasons reason (ref 1)
  end;
  (match sys.telemetry with
  | None -> ()
  | Some h -> (
      let count ?labels ~help name =
        Telemetry.Metrics.incr
          (Telemetry.Metrics.counter (Telemetry.Hub.metrics h) ?labels ~help name)
      in
      (* Exit-reason split of the exit counter: one series per cause, so
         the ring refactor's exit savings show up as a shrinking
         [hypercall] series rather than a mystery delta in the total. *)
      let count_exit () =
        count ~help:"KVM_RUN exits by cause" ~labels:[ ("reason", reason) ] "kvm_exits_total"
      in
      match kind with
      | Io_out _ | Io_in _ ->
          Telemetry.Hub.incr h "kvm_io_exits_total";
          count_exit ()
      | Fault _ ->
          Telemetry.Hub.incr h "kvm_fault_exits_total";
          count_exit ()
      | Halt | Fuel -> count_exit ()
      | Ept _ -> Telemetry.Hub.incr h "kvm_ept_violations_total"
      | Injected site ->
          let help = "fault-plan injections fired" in
          count ~help "wasp_faults_injected_total";
          count ~help ~labels:[ ("site", site) ] "wasp_faults_injected_total"));
  (match sys.flight with
  | None -> ()
  | Some fr ->
      Profiler.Flight.record fr ?trace:(active_trace sys)
        ~at:(Cycles.Clock.now (clock sys))
        ~core:sys.cur ~pc kind);
  if fire sys ~pc ~reason ?cycles ?fuel ~nr site > 0 && is_exit then
    match sys.flight with
    | None -> ()
    | Some fr -> Profiler.Flight.append_note fr "vtrace"

(* One injection fired: counted, recorded in the black box (stamped
   with the active guest PC when there is one) and fired at the
   ["inject"] site. Bookkeeping charges no cycles — the *consequence* of
   the injection (the spurious round trip, the storm, the raised
   failure) is what the site charges. *)
let note_injection sys site = observe sys ~pc:(active_pc sys) (Profiler.Flight.Injected site)

let plan_fires sys site =
  match sys.plan with
  | None -> false
  | Some plan ->
      let fire = Cycles.Fault_plan.fires plan ~site in
      if fire then note_injection sys site;
      fire

let kspan sys name f =
  match sys.telemetry with None -> f () | Some h -> Telemetry.Hub.with_span h name f

let kincr sys name =
  match sys.telemetry with None -> () | Some h -> Telemetry.Hub.incr h name

let exit_reason_counts sys =
  Hashtbl.fold (fun reason r acc -> (reason, !r) :: acc) sys.exit_reasons []
  |> List.sort compare

let charge sys cycles = Cycles.Clock.advance_int (clock sys) (Cycles.Costs.jitter sys.rng ~pct:0.05 cycles)

let create_vm sys =
  kincr sys "kvm_vm_creations_total";
  kspan sys "kvm_create_vm" (fun () ->
      (* fault plan: KVM_CREATE_VM can fail (the kernel's VMCS/VMCB
         allocation returning ENOMEM). The failed ioctl still pays its
         syscall round trip; the in-kernel allocation is never reached. *)
      if plan_fires sys site_provision_fail then begin
        Cycles.Clock.advance_int (clock sys) Cycles.Costs.ioctl_syscall;
        raise (Injected_failure site_provision_fail)
      end;
      charge sys Cycles.Costs.kvm_create_vm;
      sys.stats.vm_creations <- sys.stats.vm_creations + 1;
      { sys; memory = None })

(* A CoW break of a shared guest page: the simulated EPT write-protection
   violation. Charged deterministically (no jitter — the replay contract
   requires byte-identical stamps) and in-line, so it lands inside
   whatever phase span the triggering store runs under. Demand-zero fills
   ([shared = false]) charge nothing: cold-path timings are unchanged by
   the paged representation. *)
let on_page_fault sys ~shared ~page =
  if shared then begin
    let cost =
      Cycles.Costs.ept_violation + Cycles.Costs.memcpy_cost Vm.Memory.page_size
    in
    Cycles.Clock.advance_int (clock sys) cost;
    observe sys ~pc:(active_pc sys) ~cycles:(Int64.of_int cost) (Profiler.Flight.Ept { page })
  end

let set_user_memory_region vm ~size =
  (* the EPT/memslot build transition *)
  kspan vm.sys "kvm_memory_region" (fun () ->
      charge vm.sys Cycles.Costs.kvm_memory_region;
      let mem = Vm.Memory.create ~size in
      Vm.Memory.set_fault_hook mem
        (Some (fun ~shared ~page -> on_page_fault vm.sys ~shared ~page));
      vm.memory <- Some mem;
      mem)

let vm_memory vm =
  match vm.memory with
  | Some m -> m
  | None -> invalid_arg "Kvm.vm_memory: no user memory region registered"

let vm_system vm = vm.sys

let create_vcpu vm ~mode =
  kincr vm.sys "kvm_vcpu_creations_total";
  kspan vm.sys "kvm_create_vcpu" (fun () ->
      charge vm.sys Cycles.Costs.kvm_create_vcpu;
      vm.sys.stats.vcpu_creations <- vm.sys.stats.vcpu_creations + 1;
      (* the vCPU charges the clock of the core that created it: shells
         stay in their owning core's pool shard, so guest execution is
         always billed to that core *)
      let cpu = Vm.Cpu.create ~mem:(vm_memory vm) ~mode ~clock:(clock vm.sys) in
      { parent = vm; cpu; trans = Vm.Translate.create cpu })

let vcpu_cpu v = v.cpu
let vcpu_vm v = v.parent

let reset_vcpu v ~mode =
  Vm.Cpu.reset v.cpu ~mode;
  (* shell reuse: the pool's reset_zero already epoch-invalidates every
     block; dropping them too keeps the table from accreting garbage *)
  Vm.Translate.flush_cache v.trans

let run ?fuel v =
  let sys = v.parent.sys in
  sys.stats.runs <- sys.stats.runs + 1;
  kincr sys "kvm_runs_total";
  let t0 = Cycles.Clock.now (clock sys) in
  Vm.Translate.set_block_hook v.trans sys.block_probe;
  let exit =
    kspan sys "vcpu_run" (fun () ->
        charge sys (Cycles.Costs.ioctl_syscall + Cycles.Costs.kvm_run_checks + Cycles.Costs.vmentry);
        sys.active_cpu <- Some v.cpu;
        let exit =
          Fun.protect ~finally:(fun () -> sys.active_cpu <- None) (fun () ->
              (* Fault-plan perturbations inside KVM_RUN. Injected costs
                 are charged without jitter: the chaos timeline must
                 replay cycle-for-cycle under the same plan. *)
              if plan_fires sys site_spurious_exit then
                (* one spurious exit: a wasted exit/re-entry round trip
                   before the guest makes progress *)
                Cycles.Clock.advance_int (clock sys)
                  (Cycles.Costs.vmexit + Cycles.Costs.ioctl_syscall
                 + Cycles.Costs.kvm_run_checks + Cycles.Costs.vmentry);
              if plan_fires sys site_ept_storm then
                (* a burst of EPT violations that make no forward
                   progress (walk + exit + re-entry, no page copied) *)
                Cycles.Clock.advance_int (clock sys) (8 * Cycles.Costs.ept_violation);
              if plan_fires sys site_guest_hang then begin
                (* the guest spins without retiring useful work until the
                   fuel watchdog kills it *)
                let spin = match fuel with Some f -> max f 1 | None -> 1_000_000 in
                Cycles.Clock.advance_int (clock sys) (spin * Cycles.Costs.alu);
                Vm.Cpu.Out_of_fuel
              end
              else Vm.Translate.run ?fuel v.trans)
        in
        charge sys Cycles.Costs.vmexit;
        exit)
  in
  let observe_exit kind =
    observe sys ~pc:(Vm.Cpu.pc v.cpu)
      ~cycles:(Int64.sub (Cycles.Clock.now (clock sys)) t0)
      ?fuel kind
  in
  match exit with
  | Vm.Cpu.Halt ->
      observe_exit Profiler.Flight.Halt;
      Hlt
  | Vm.Cpu.Io_out { port; value } ->
      observe_exit (Profiler.Flight.Io_out { port; value });
      Io_out { port; value }
  | Vm.Cpu.Io_in { port; reg } ->
      observe_exit (Profiler.Flight.Io_in { port });
      Io_in { port; reg }
  | Vm.Cpu.Fault f ->
      observe_exit
        (Profiler.Flight.Fault (Format.asprintf "%a" Vm.Cpu.pp_exit (Vm.Cpu.Fault f)));
      Fault f
  | Vm.Cpu.Out_of_fuel ->
      observe_exit Profiler.Flight.Fuel;
      Out_of_fuel

(* Background shell construction for the pool's pipelined prewarm: the
   same VM + memory + vCPU assembly as the charged path, but with no
   clock charges, no spans and no fault-plan opportunities — the caller
   books the deterministic construction cost against its idle-cycle
   budget instead. The vCPU is bound to [core]'s clock regardless of the
   current core, so a prewarmed shell later runs on its owning shard's
   clock exactly like a synchronously created one. *)
let build_shell sys ~core ~size ~mode =
  if core < 0 || core >= Array.length sys.clocks then
    invalid_arg "Kvm.build_shell: no such core";
  sys.stats.vm_creations <- sys.stats.vm_creations + 1;
  sys.stats.vcpu_creations <- sys.stats.vcpu_creations + 1;
  let vm = { sys; memory = None } in
  let mem = Vm.Memory.create ~size in
  Vm.Memory.set_fault_hook mem
    (Some (fun ~shared ~page -> on_page_fault sys ~shared ~page));
  vm.memory <- Some mem;
  let cpu = Vm.Cpu.create ~mem ~mode ~clock:sys.clocks.(core) in
  { parent = vm; cpu; trans = Vm.Translate.create cpu }
