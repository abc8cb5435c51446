(** Simulated KVM interface.

    Mirrors the Linux KVM lifecycle Wasp drives: open [/dev/kvm], create a
    VM file descriptor ([KVM_CREATE_VM] — the expensive in-kernel
    VMCS/VMCB and state allocation), register a user memory region, create
    a vCPU, and enter the guest with the [KVM_RUN] ioctl. Each step
    charges the calibrated host-side cycle costs (Figure 2/8), including
    the ring transitions that make hypercall exits "doubly expensive"
    (§6.3). *)

type system
(** An open /dev/kvm: owns the virtual clock and noise source. *)

type vm
type vcpu

type run_exit =
  | Hlt
  | Io_out of { port : int; value : int64 }
  | Io_in of { port : int; reg : Instr.reg }
  | Fault of Vm.Cpu.fault
  | Out_of_fuel

type stats = {
  mutable vm_creations : int;
  mutable vcpu_creations : int;
  mutable runs : int;
  mutable io_exits : int;
  mutable fault_exits : int;
  mutable ept_violations : int;
      (** CoW breaks of shared guest pages (simulated EPT
          write-protection violations); each charged
          [Costs.ept_violation + memcpy_cost page_size]. *)
  mutable injected_faults : int;
      (** Fault-plan injections fired through this system (all sites). *)
}

exception Injected_failure of string
(** Raised by operations the armed fault plan makes fail outright
    (currently {!site_provision_fail} in {!create_vm}). The payload is
    the site name. *)

(** {2 Fault injection}

    Arm a {!Cycles.Fault_plan.t} and the simulated KVM perturbs itself at
    these sites (see [docs/robustness.md]):

    - {!site_spurious_exit}: one opportunity per {!run}; a fire charges a
      wasted exit/re-entry round trip before the guest makes progress.
    - {!site_ept_storm}: one opportunity per {!run}; a fire charges a
      burst of 8 no-progress EPT violations.
    - {!site_guest_hang}: one opportunity per {!run}; a fire burns the
      caller's entire fuel budget and returns {!Out_of_fuel} without
      executing the guest.
    - {!site_provision_fail}: one opportunity per {!create_vm}; a fire
      raises {!Injected_failure} after charging the failed ioctl's
      syscall round trip.
    - {!site_snapshot_corrupt} is consumed by the Wasp runtime (one
      opportunity per snapshot restore): a fire overwrites the restored
      page under the guest PC with an invalid-opcode pattern, so the
      guest faults deterministically at its first fetch.
    - {!site_ring_corrupt} is consumed by the Wasp runtime (one
      opportunity per {!Hc.ring_enter} doorbell): a fire makes the drain
      treat the ring header as corrupt, so the whole batch completes as
      a guest fault (retryable under supervision) without dispatching.

    Injected costs are charged {e without} jitter, so a chaos run under
    the same plan and seed replays cycle-for-cycle. Each fire bumps
    [stats.injected_faults], the [wasp_faults_injected_total] counter
    (plain and [site]-labeled) and leaves an [INJECTED] entry in the
    attached flight ring. *)

val site_spurious_exit : string
val site_ept_storm : string
val site_provision_fail : string
val site_guest_hang : string
val site_snapshot_corrupt : string
val site_ring_corrupt : string

val set_fault_plan : system -> Cycles.Fault_plan.t option -> unit
(** Arm (or disarm) a fault plan. The plan's state advances as
    opportunities are consumed; use {!Cycles.Fault_plan.copy} to arm an
    identical fresh plan elsewhere. *)

val fault_plan : system -> Cycles.Fault_plan.t option

val plan_fires : system -> string -> bool
(** Consume one opportunity at the named site against the armed plan
    (false when none is armed). A fire does the injection bookkeeping —
    stats, counters, flight entry — but charges no cycles; the caller
    applies the consequence. Exposed for sites that live above the KVM
    layer (the runtime's {!site_snapshot_corrupt}). *)

val open_dev : ?seed:int -> ?freq_ghz:float -> ?cores:int -> unit -> system
(** [cores] (default 1) gives the system that many per-core virtual
    clocks; all charges land on the {e current} core's clock (see
    {!set_core}). Guests execute through {!Vm.Translate}. *)

val clock : system -> Cycles.Clock.t
(** The current core's clock (core 0 until {!set_core} is called). *)

val cores : system -> int
val current_core : system -> int

val core_clock : system -> int -> Cycles.Clock.t

val set_core : system -> int -> unit
(** Make [core] current: subsequent charges, vCPU creations and span
    stamps (the attached hub is retargeted) land on its clock. The
    multi-core scheduler calls this before running each task. *)

val rng : system -> Cycles.Rng.t
val stats : system -> stats

val exit_reason_counts : system -> (string * int) list
(** Always-on per-reason tally of every {!run} return — the
    [kvm_exits_total{reason}] series ([hlt]/[hypercall]/[io_out]/
    [io_in]/[fault]/[fuel]) readable without a telemetry hub, sorted by
    reason. The fuzzer hashes it (with the flight ring's exit-edge
    pairs) into its coverage bitmap after each candidate. *)

(** {2 Observers}

    The system is the one attach point for every observer of the
    layers above it: the telemetry hub, the flight ring and the vtrace
    probe engine live here and nowhere else. {!Wasp.Pool} and
    {!Wasp.Runtime} read them through the system they hold, and
    [Wasp.Runtime.set_telemetry]/[set_probes] delegate to the setters
    below. *)

val set_telemetry : system -> Telemetry.Hub.t option -> unit
(** Attach (or detach) a telemetry hub; subsequent KVM transitions
    (vm-create, memslot/EPT build, vcpu-create, [KVM_RUN]) open spans and
    bump [kvm_*] counters on it, and the shell pool and runtime above
    publish their spans and [wasp_*] series to the same hub. The hub must
    share this system's clock. *)

val telemetry : system -> Telemetry.Hub.t option

val active_trace : system -> int64 option
(** Trace id of the innermost open span on the attached hub ([None] when
    no hub is attached, tracing is off or no span is open). *)

val set_flight : system -> Profiler.Flight.t option -> unit
(** Attach (or detach) a flight recorder: every VM exit {!run} observes
    (halt, I/O, fault, fuel) is recorded with its cycle stamp, core id
    and guest PC. The runtime dumps the ring as a black-box report when
    a guest faults or violates hypercall policy. *)

val flight : system -> Profiler.Flight.t option

val set_probes : system -> Vtrace.Engine.t option -> unit
(** Attach (or detach) a vtrace probe engine — the one engine every
    layer above fires through {!fire}. Sites fired by this layer:
    ["exit"] (every {!run} return — reason [hlt]/[io_out]/[io_in]/
    [fault]/[fuel], or [hypercall] with [nr] = the hypercall number when
    the out port matches {!set_hc_port}; [cycles] = the run's
    entry-to-exit duration), ["ept"] (CoW break; [nr] = page, [cycles] =
    charged cost), ["inject"] (fault-plan fire; [reason] = site) and
    ["block"] (superblock entry, installed as a {!Vm.Translate} block
    hook). When an ["exit"] probe fires, the flight
    ring's newest entry is annotated ["vtrace"]. Probes charge zero
    simulated cycles; detached sites cost one [None] check. *)

val probes : system -> Vtrace.Engine.t option

val fire :
  system ->
  ?fn:string ->
  ?pc:int ->
  ?reason:string ->
  ?cycles:int64 ->
  ?fuel:int ->
  ?nr:int64 ->
  string ->
  int
(** [fire sys site] fires [site] on the attached probe engine with a
    context stamped with the current core and {!active_trace}; the other
    fields default as in {!Vtrace.Ctx.make}. Returns how many probes
    matched — 0, with no context built, when no engine is attached. *)

val set_hc_port : system -> int option -> unit
(** Declare the hypercall port (the runtime above passes its [Hc.port]):
    [Io_out] exits on it fire ["exit"] probes with reason ["hypercall"]
    and [nr] = the value written (the hypercall number). *)

val create_vm : system -> vm
(** [KVM_CREATE_VM]: charges the in-kernel allocation cost. *)

val set_user_memory_region : vm -> size:int -> Vm.Memory.t
(** Allocate and register guest memory; charges the memslot setup cost.
    Replaces any previous region. Installs the memory's fault hook: CoW
    breaks of shared pages charge the simulated EPT-violation cost and
    land in the flight ring (demand-zero fills are free). *)

val vm_memory : vm -> Vm.Memory.t
(** Raises [Invalid_argument] if no region was registered. *)

val vm_system : vm -> system

val create_vcpu : vm -> mode:Vm.Modes.t -> vcpu
(** Charges vCPU allocation. The vCPU starts in [mode] (the guest boot
    code's mode transitions are charged separately by {!Vm.Boot}). *)

val vcpu_cpu : vcpu -> Vm.Cpu.t
(** Direct register/PC access for the user-space VMM, like
    [KVM_GET/SET_REGS]. *)

val vcpu_vm : vcpu -> vm

val reset_vcpu : vcpu -> mode:Vm.Modes.t -> unit
(** Clear architectural state for shell reuse and drop the vCPU's
    translated blocks; memory is untouched. *)

val run : ?fuel:int -> vcpu -> run_exit
(** The [KVM_RUN] ioctl: charges syscall entry, in-kernel checks and VM
    entry; executes the guest until it exits; charges VM exit and the
    return to user space. Resumable after I/O exits. Each return also
    bumps the [kvm_exits_total{reason}] counter
    ([hlt]/[hypercall]/[io_out]/[io_in]/[fault]/[fuel]). *)

val build_shell : system -> core:int -> size:int -> mode:Vm.Modes.t -> vcpu
(** Background shell assembly for pipelined pool refill: the same
    VM + memory + vCPU construction as {!create_vm} /
    {!set_user_memory_region} / {!create_vcpu}, but charging {e no}
    cycles, opening no spans and consuming no fault-plan opportunities —
    the caller accounts the deterministic construction cost against an
    idle-cycle budget (see {!Wasp.Pool}). The vCPU is bound to [core]'s
    clock so a prewarmed shell later executes on its owning shard's
    clock. Creation stats are still bumped. *)
