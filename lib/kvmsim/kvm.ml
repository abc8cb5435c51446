(* One counted series: its lifetime total, and the attached hub's
   counter once this series has been bumped under that hub. *)
type series = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  mutable total : int;
  mutable in_hub : Telemetry.Metrics.counter option;
}

type system = {
  clocks : Cycles.Clock.t array;  (* one virtual clock per simulated core *)
  mutable cur : int;              (* core charged by subsequent operations *)
  rng : Cycles.Rng.t;
  series : (string, series) Hashtbl.t;  (* by Metrics.series_key *)
  exits : (string, series) Hashtbl.t;
      (* the kvm_exits_total{reason} entries of [series], by reason, so
         the per-exit bump builds no key *)
  mutable vms_built : int;
  mutable vcpus_built : int;
  mutable telemetry : Telemetry.Hub.t option;
  flight : Profiler.Flight.t;  (* every VM exit, always: recording charges no cycles *)
  mutable active_cpu : Vm.Cpu.t option;
      (* vCPU inside KVM_RUN right now: EPT violations taken from guest
         stores are stamped with its PC in the flight ring *)
  mutable plan : Cycles.Fault_plan.t option;
  mutable probes : Vtrace.Engine.t option;
  mutable profiler : Profiler.Profile.t option;
  mutable payload : string;  (* running now, per the runtime: probe contexts' default [fn] *)
  hc_port : int option;
      (* the hypercall port, when a runtime above us declared one:
         Io_out exits on it fire vtrace "exit" probes as "hypercall" *)
  trans : Vm.Translate.t;
      (* the one translation cache every vCPU runs on: a recycled or
         prewarmed shell finds the blocks other shells translated *)
}

type stats = {
  vm_creations : int;
  vcpu_creations : int;
  runs : int;
  io_exits : int;
  fault_exits : int;
  ept_violations : int;
  injected_faults : int;
}

exception Injected_failure of string

let site_spurious_exit = "spurious_exit"
let site_ept_storm = "ept_storm"
let site_provision_fail = "provision_fail"
let site_guest_hang = "guest_hang"
let site_snapshot_corrupt = "snapshot_corrupt"
let site_ring_corrupt = "ring_corrupt"

type vm = { sys : system; mutable memory : Vm.Memory.t option }

type vcpu = { parent : vm; cpu : Vm.Cpu.t }

let open_dev ?(seed = 0x5eed) ?(cores = 1) ?flight_capacity ?hc_port () =
  if cores < 1 then invalid_arg "Kvm.open_dev: cores must be >= 1";
  let flight = Profiler.Flight.create ?capacity:flight_capacity () in
  {
    clocks = Array.init cores (fun _ -> Cycles.Clock.create ());
    cur = 0;
    rng = Cycles.Rng.create ~seed;
    series = Hashtbl.create 32;
    exits = Hashtbl.create 8;
    vms_built = 0;
    vcpus_built = 0;
    telemetry = None;
    flight;
    active_cpu = None;
    plan = None;
    probes = None;
    profiler = None;
    payload = "";
    hc_port;
    trans = Vm.Translate.create ();
  }

let clock sys = sys.clocks.(sys.cur)
let cores sys = Array.length sys.clocks
let current_core sys = sys.cur

let core_clock sys core =
  if core < 0 || core >= Array.length sys.clocks then invalid_arg "Kvm.core_clock: no such core";
  sys.clocks.(core)

(* The attached hub stamps with the current core's clock and id. *)
let retarget_hub sys =
  match sys.telemetry with
  | Some h ->
      Telemetry.Hub.set_clock h sys.clocks.(sys.cur);
      Telemetry.Hub.set_core h sys.cur
  | None -> ()

let set_core sys core =
  if core < 0 || core >= Array.length sys.clocks then invalid_arg "Kvm.set_core: no such core";
  sys.cur <- core;
  retarget_hub sys

let rng sys = sys.rng

(* A series registers in a newly attached hub at its first bump under
   it, so the hub's registration order and values start from the
   attach. *)
let set_telemetry sys hub =
  sys.telemetry <- hub;
  retarget_hub sys;
  Hashtbl.iter (fun _ s -> s.in_hub <- None) sys.series

let telemetry sys = sys.telemetry
let hub_attached sys = Option.is_some sys.telemetry

(* [Hashtbl.find], not [find_opt]: the lookup allocates no option. *)
let series sys ?(labels = []) ?(help = "") name =
  let key = Telemetry.Metrics.series_key name labels in
  match Hashtbl.find sys.series key with
  | s -> s
  | exception Not_found ->
      let s = { s_name = name; s_help = help; s_labels = labels; total = 0; in_hub = None } in
      Hashtbl.add sys.series key s;
      s

(* Counters are monotone: a negative [by] leaves the total alone and is
   a bad sample on the hub. *)
let bump sys ?(by = 1) s =
  if by > 0 then s.total <- s.total + by;
  match sys.telemetry with
  | None -> ()
  | Some h ->
      let c =
        match s.in_hub with
        | Some c -> c
        | None ->
            let c =
              Telemetry.Metrics.counter (Telemetry.Hub.metrics h) ~help:s.s_help
                ~labels:s.s_labels s.s_name
            in
            s.in_hub <- Some c;
            c
      in
      Telemetry.Metrics.incr ~by c

let count sys ?by ?labels ?help name = bump sys ?by (series sys ?labels ?help name)

let tally sys name =
  match Hashtbl.find_opt sys.series (Telemetry.Metrics.series_key name []) with
  | Some s -> s.total
  | None -> 0

let stats sys =
  let n name = tally sys name in
  {
    vm_creations = sys.vms_built;
    vcpu_creations = sys.vcpus_built;
    runs = n "kvm_runs_total";
    io_exits = n "kvm_io_exits_total";
    fault_exits = n "kvm_fault_exits_total";
    ept_violations = n "kvm_ept_violations_total";
    injected_faults = n "wasp_faults_injected_total";
  }

(* Exit-reason split of the exit counter: one series per cause, so the
   ring refactor's exit savings show up as a shrinking [hypercall]
   series rather than a mystery delta in the total. *)
let exit_series sys reason =
  match Hashtbl.find sys.exits reason with
  | s -> s
  | exception Not_found ->
      let s =
        series sys ~help:"KVM_RUN exits by cause" ~labels:[ ("reason", reason) ]
          "kvm_exits_total"
      in
      Hashtbl.add sys.exits reason s;
      s

let exit_reason_counts sys =
  Hashtbl.fold (fun reason s acc -> (reason, s.total) :: acc) sys.exits []
  |> List.sort compare

let flight sys = sys.flight

let set_fault_plan sys plan = sys.plan <- plan

(* Trace id of the request currently on-CPU, so black-box entries and
   probe contexts are greppable by trace. None when tracing is off or no
   span is open. *)
let active_trace sys =
  match sys.telemetry with
  | None -> None
  | Some h -> Telemetry.Hub.current_trace h

(* Spans, instants, gauges and histogram samples: each reaches the
   attached hub, if any, from here and from nowhere else. *)
let span sys ?args name f =
  match sys.telemetry with None -> f () | Some h -> Telemetry.Hub.with_span h ?args name f

let instant sys ?args name =
  match sys.telemetry with None -> () | Some h -> Telemetry.Hub.instant h ?args name

let gauge sys ?help ?labels name v =
  match sys.telemetry with None -> () | Some h -> Telemetry.Hub.set_gauge h ?help ?labels name v

let sample sys ?labels name v =
  match sys.telemetry with None -> () | Some h -> Telemetry.Hub.observe h ?labels name v

let probing sys site =
  match sys.probes with Some e -> Vtrace.Engine.wants e site | None -> false

(* The one place a system builds a probe context (the other is the
   [Dessim.Cores.set_probes] shim). Callers ask [probing] first, so none
   is built for a site no probe names. Returns how many probes matched. *)
let matches sys ~core ~fn ~pc ~reason ~cycles ~fuel ~nr site =
  match sys.probes with
  | None -> 0
  | Some e ->
      let fn = if String.equal fn "" then sys.payload else fn in
      Vtrace.Engine.fire e
        { Vtrace.Ctx.site; core; trace = active_trace sys; fn; pc; reason; cycles; fuel; nr }

let fire sys ?(core = sys.cur) ?(fn = "") ?(pc = 0) ~reason ~cycles ~nr site =
  if probing sys site then
    let cycles = Int64.of_int cycles and nr = Int64.of_int nr in
    ignore (matches sys ~core ~fn ~pc ~reason ~cycles ~fuel:0 ~nr site)

let set_probes sys e =
  sys.probes <- e;
  Vm.Translate.set_block_hook sys.trans
    (if probing sys "block" then Some (fun ~pc -> fire sys ~pc ~reason:"" ~cycles:0 ~nr:0 "block")
     else None)

let probes sys = sys.probes
let set_profiler sys p = sys.profiler <- p
let set_payload sys name = sys.payload <- name

let active_pc sys = match sys.active_cpu with Some cpu -> Vm.Cpu.pc cpu | None -> 0

let hypercall_exit sys port = match sys.hc_port with Some p -> p = port | None -> false

(* The vtrace site, reason and [nr] each KVM event fires with. *)
let site_of : Profiler.Flight.kind -> string = function
  | Exit _ -> "exit" | Ept _ -> "ept" | Injected _ -> "inject"

let reason_of sys : Profiler.Flight.kind -> string = function
  | Exit (Io_out { port; _ }) when hypercall_exit sys port -> "hypercall"
  | Exit Halt -> "hlt" | Exit (Io_out _) -> "io_out" | Exit (Io_in _) -> "io_in"
  | Exit (Fault _) -> "fault" | Exit Out_of_fuel -> "fuel" | Ept _ -> "cow_break"
  | Injected site -> site

let nr_of sys : Profiler.Flight.kind -> int64 = function
  | Exit (Io_out { port; value }) when hypercall_exit sys port -> value
  | Exit (Io_out { port; _ } | Io_in { port; _ }) | Ept { page = port } -> Int64.of_int port
  | Exit (Halt | Fault _ | Out_of_fuel) | Injected _ -> 0L

(* Every KVM-level event — a KVM_RUN return, a CoW break, a fault-plan
   injection — fans out from here to each observer, in a fixed order:
   the counters, the flight ring, then the vtrace site. Observing
   charges no cycles. For exits, [cycles] is the KVM_RUN's entry-to-exit
   duration; the vtrace fire runs after the flight entry so a matching
   exit probe can stamp it. *)
let observe sys ~pc ~cycles ~fuel (kind : Profiler.Flight.kind) =
  let site = site_of kind and reason = reason_of sys kind in
  let is_exit = String.equal site "exit" in
  (match kind with
  | Exit (Io_out _ | Io_in _) -> count sys "kvm_io_exits_total"
  | Exit (Fault _) -> count sys "kvm_fault_exits_total"
  | Ept _ -> count sys "kvm_ept_violations_total"
  | Injected site ->
      let help = "fault-plan injections fired" in
      count sys ~help "wasp_faults_injected_total";
      count sys ~help ~labels:[ ("site", site) ] "wasp_faults_injected_total"
  | Exit (Halt | Out_of_fuel) -> ());
  if is_exit then bump sys (exit_series sys reason);
  Profiler.Flight.record sys.flight ?trace:(active_trace sys)
    ~at:(Cycles.Clock.now (clock sys))
    ~core:sys.cur ~pc kind;
  if probing sys site then
    let cycles = Int64.of_int cycles and nr = nr_of sys kind in
    if matches sys ~core:sys.cur ~fn:"" ~pc ~reason ~cycles ~fuel ~nr site > 0 && is_exit then
      Profiler.Flight.append_note sys.flight "vtrace"

(* One injection fired: counted, recorded in the black box (stamped
   with the active guest PC when there is one) and fired at the
   ["inject"] site. Bookkeeping charges no cycles — the *consequence* of
   the injection (the spurious round trip, the storm, the raised
   failure) is what the site charges. *)
let note_injection sys site =
  observe sys ~pc:(active_pc sys) ~cycles:0 ~fuel:0 (Profiler.Flight.Injected site)

let plan_fires sys site =
  match sys.plan with
  | None -> false
  | Some plan ->
      let fire = Cycles.Fault_plan.fires plan ~site in
      if fire then note_injection sys site;
      fire

let charge sys cycles = Cycles.Clock.advance_int (clock sys) (Cycles.Costs.jitter sys.rng ~pct:0.05 cycles)

let create_vm sys =
  count sys "kvm_vm_creations_total";
  span sys "kvm_create_vm" (fun () ->
      (* fault plan: KVM_CREATE_VM can fail (the kernel's VMCS/VMCB
         allocation returning ENOMEM). The failed ioctl still pays its
         syscall round trip; the in-kernel allocation is never reached. *)
      if plan_fires sys site_provision_fail then begin
        Cycles.Clock.advance_int (clock sys) Cycles.Costs.ioctl_syscall;
        raise (Injected_failure site_provision_fail)
      end;
      charge sys Cycles.Costs.kvm_create_vm;
      sys.vms_built <- sys.vms_built + 1;
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
    observe sys ~pc:(active_pc sys) ~cycles:cost ~fuel:0 (Profiler.Flight.Ept { page })
  end

let set_user_memory_region vm ~size =
  (* the EPT/memslot build transition *)
  span vm.sys "kvm_memory_region" (fun () ->
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
  count vm.sys "kvm_vcpu_creations_total";
  span vm.sys "kvm_create_vcpu" (fun () ->
      charge vm.sys Cycles.Costs.kvm_create_vcpu;
      vm.sys.vcpus_built <- vm.sys.vcpus_built + 1;
      (* the vCPU charges the clock of the core that created it: shells
         stay in their owning core's pool shard, so guest execution is
         always billed to that core *)
      let cpu = Vm.Cpu.create ~mem:(vm_memory vm) ~mode ~clock:(clock vm.sys) in
      { parent = vm; cpu })

let vcpu_cpu v = v.cpu
let vcpu_vm v = v.parent

let reset_vcpu v ~mode = Vm.Cpu.reset v.cpu ~mode

(* a copy, so a reader cannot disturb the cache's own counters *)
let translation_stats sys =
  let s = Vm.Translate.stats sys.trans in
  { s with Vm.Translate.blocks_translated = s.Vm.Translate.blocks_translated }

let translation_words sys = Vm.Translate.retained_words sys.trans

let run ?fuel v =
  let sys = v.parent.sys in
  count sys "kvm_runs_total";
  let t0 = Cycles.Clock.now (clock sys) in
  let exit =
    span sys "vcpu_run" (fun () ->
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
              else Vm.Translate.run ?fuel sys.trans v.cpu)
        in
        charge sys Cycles.Costs.vmexit;
        exit)
  in
  observe sys ~pc:(Vm.Cpu.pc v.cpu)
    ~cycles:(Int64.to_int (Cycles.Clock.elapsed_since (clock sys) t0))
    ~fuel:(Option.value fuel ~default:0) (Profiler.Flight.Exit exit);
  exit

(* The execute phase, with the vCPU step hook of what is attached (the
   profiler's attribution, inside its bracket, then the ["instr"] site)
   and none when neither is there. *)
let execute v ~symbols f =
  let sys = v.parent.sys in
  let clk = clock sys and prof = sys.profiler and instr = probing sys "instr" in
  if Option.is_none prof && not instr then span sys "execute" f
  else begin
    let start = Cycles.Clock.now clk in
    Option.iter (fun p -> Profiler.Profile.begin_invocation p ~symbols ~clock:clk) prof;
    Vm.Cpu.set_step_hook v.cpu
      (Some
         (fun ~pc ~instr:i ~cost ->
           (match prof with Some p -> Profiler.Profile.on_step p ~pc ~instr:i ~cost | None -> ());
           if instr then
             ignore
               (matches sys ~core:sys.cur ~fn:"" ~pc ~reason:(Profiler.Profile.opcode_key i)
                  ~cycles:(Int64.of_int cost) ~fuel:0 ~nr:0L "instr")));
    let finally () = Vm.Cpu.set_step_hook v.cpu None in
    let r = Fun.protect ~finally (fun () -> span sys "execute" f) in
    let execute_cycles = Cycles.Clock.elapsed_since clk start in
    Option.iter (fun p -> Profiler.Profile.end_invocation p ~execute_cycles) prof;
    r
  end

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
  sys.vms_built <- sys.vms_built + 1;
  sys.vcpus_built <- sys.vcpus_built + 1;
  let vm = { sys; memory = None } in
  let mem = Vm.Memory.create ~size in
  Vm.Memory.set_fault_hook mem
    (Some (fun ~shared ~page -> on_page_fault sys ~shared ~page));
  vm.memory <- Some mem;
  let cpu = Vm.Cpu.create ~mem ~mode ~clock:sys.clocks.(core) in
  { parent = vm; cpu }
