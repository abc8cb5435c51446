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

type stats = {
  vm_creations : int;
      (** VMs built, by {!create_vm} (not one failed by
          {!site_provision_fail}) and by {!build_shell}. *)
  vcpu_creations : int;  (** vCPUs built, by {!create_vcpu} and {!build_shell}. *)
  runs : int;  (** [kvm_runs_total] *)
  io_exits : int;  (** [kvm_io_exits_total] *)
  fault_exits : int;  (** [kvm_fault_exits_total] *)
  ept_violations : int;
      (** [kvm_ept_violations_total]: CoW breaks of shared guest pages
          (simulated EPT write-protection violations); each charged
          [Costs.ept_violation + memcpy_cost page_size]. *)
  injected_faults : int;
      (** [wasp_faults_injected_total]: fault-plan injections fired
          through this system (all sites). *)
}
(** A view, built by each {!stats} call: the counted fields are the
    lifetime {!tally} of the series named beside them. The two creation
    counts are plain fields, as no series counts what they count. *)

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
      caller's entire fuel budget and returns [Vm.Cpu.Out_of_fuel] without
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
    the same plan and seed replays cycle-for-cycle. Each fire counts
    [wasp_faults_injected_total] (plain and [site]-labeled) and leaves
    an [INJECTED] entry in the system's {!flight} ring. *)

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

val plan_fires : system -> string -> bool
(** Consume one opportunity at the named site against the armed plan
    (false when none is armed). A fire does the injection bookkeeping —
    counters, flight entry — but charges no cycles; the caller
    applies the consequence. Exposed for sites that live above the KVM
    layer (the runtime's {!site_snapshot_corrupt}). *)

val open_dev :
  ?seed:int -> ?cores:int -> ?flight_capacity:int -> ?hc_port:int -> unit -> system
(** [cores] (default 1) gives the system that many per-core virtual
    clocks, at {!Cycles.Clock.default_freq_ghz}; all charges land on
    the {e current} core's clock (see {!set_core}). Guests execute
    through one {!Vm.Translate} cache per system, shared by all its
    vCPUs. [flight_capacity] sizes the system's {!flight} ring (default
    128, see {!Profiler.Flight.create}). [Io_out] exits on [hc_port]
    (the runtime above passes its [Hc.port]) are hypercall exits. *)

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

(** {2 Counters}

    Every counted event of the layers above (this one, {!Wasp} and
    {!Serverless}) is bumped once, through {!count}. The system keeps
    each series' lifetime total, which {!tally} reads whether or not a
    hub was ever attached. While a hub is attached, the same bump
    increments that hub's counter of the same name, help and labels,
    registered at the series' first bump under that hub: a hub counts
    from its attach, and a freshly attached one starts from zero. The
    typed records ({!stats}, [Wasp.Runtime.stats], [Wasp.Pool.stats],
    [Wasp.Supervisor.stats], [Serverless.Gateway]'s counts) are views of
    these totals. *)

val count :
  system -> ?by:int -> ?labels:(string * string) list -> ?help:string -> string -> unit
(** [count sys name] adds [by] (default 1) to the series ([name],
    [labels]) — the system's total and, when a hub is attached, its
    counter, registered with [help] if this is the first bump under it
    (a [~by:0] bump registers it too). A series keeps the [help] of its
    first {!count}. Counters are monotone: a negative [by] leaves the
    total alone and is a bad sample on the hub. *)

val tally : system -> string -> int
(** Lifetime total of the unlabeled series [name]; 0 if it was never
    counted. *)

val stats : system -> stats

val exit_reason_counts : system -> (string * int) list
(** The [kvm_exits_total{reason}] totals ([hlt]/[hypercall]/[io_out]/
    [io_in]/[fault]/[fuel]) of every {!run} return, sorted by reason.
    The fuzzer hashes them (with the flight ring's exit-edge pairs) into
    its coverage bitmap after each candidate. *)

(** {2 Observers}

    The system is where the telemetry hub, the vtrace probe engine and
    the guest profiler attach for every layer above it ({!Wasp.Runtime},
    {!Wasp.Pool}, [Wasp.Supervisor], [Serverless] and the scheduler
    [Serverless.Loadgen] builds), and it owns the flight ring. This
    module alone decides what each observer is handed and installs the
    engine hooks they need. The [.vxr] recorder lives on the runtime: its
    events are Wasp hypercalls, ring ops included, which this layer
    never sees. [Dessim.Cores.set_probes], kept for the bench/perf
    harness, is the one path that fires straight into an engine.

    Every write the layers above make to a hub goes through this
    module: {!count}, {!span}, {!instant}, {!gauge} and {!sample}. Each
    is a no-op while no hub is attached, and one of them decides how an
    observation reaches the hub. *)

val set_telemetry : system -> Telemetry.Hub.t option -> unit
(** Attach (or detach) a telemetry hub; subsequent KVM transitions
    (vm-create, memslot/EPT build, vcpu-create, [KVM_RUN]) open spans and
    bump [kvm_*] counters on it, and the shell pool and runtime above
    publish their spans and [wasp_*] series to the same hub (see
    {!count}). The hub must share this system's clock: at attach it is
    retargeted to the current core's clock and id, as {!set_core} does. *)

val telemetry : system -> Telemetry.Hub.t option

val hub_attached : system -> bool
(** Whether a hub is attached: span args and sample values need building. *)

val span :
  system -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span sys name f] runs [f] inside a span [name] on the attached hub
    (closed on return or exception), or just runs it when none is. *)

val instant : system -> ?args:(string * string) list -> string -> unit
(** A point event on the attached hub. *)

val gauge :
  system -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit
(** Set a gauge series on the attached hub (see
    {!Telemetry.Hub.set_gauge}). *)

val sample : system -> ?labels:(string * string) list -> string -> int64 -> unit
(** One histogram sample on the attached hub, stamped with the active
    trace id as its exemplar (see {!Telemetry.Hub.observe}). *)

val flight : system -> Profiler.Flight.t
(** The system's flight recorder: every VM exit {!run} observes (halt,
    I/O, fault, fuel), every CoW break and every injection is recorded
    with its cycle stamp, core id and guest PC. Recording charges no
    cycles, so the ring is always there. The runtime dumps it as a
    black-box report when a guest faults or violates hypercall policy. *)

val set_probes : system -> Vtrace.Engine.t option -> unit
(** Attach (or detach) a vtrace probe engine — the one engine every
    layer above fires through {!fire}. This layer fires ["exit"] (every
    {!run} return; [hypercall] exits carry the hypercall number),
    ["ept"], ["inject"], ["block"] (a {!Vm.Translate} block hook,
    installed when a probe names it) and ["instr"] (inside {!execute});
    [docs/vtrace.md] catalogs every site's fields. A matching ["exit"]
    probe stamps ["vtrace"] on the flight ring's newest entry. Probes
    charge zero simulated cycles. *)

val probes : system -> Vtrace.Engine.t option

val probing : system -> string -> bool
(** Whether a probe of the attached engine names [site]. *)

val fire :
  system ->
  ?core:int ->
  ?fn:string ->
  ?pc:int ->
  reason:string ->
  cycles:int ->
  nr:int ->
  string ->
  unit
(** [fire sys ~reason ~cycles ~nr site] fires [site] when {!probing}
    it, and builds nothing otherwise. The context carries [core]
    (default: the current core), the trace id of the innermost open
    span on the attached hub and [fn] (when absent or empty: the
    {!set_payload} name). *)

val set_profiler : system -> Profiler.Profile.t option -> unit
(** Attach (or detach) a guest profiler: every {!execute} then runs
    inside its invocation bracket, stepping through its hook. *)

val set_payload : system -> string -> unit
(** Name the payload that runs from now on (once per invocation): probe
    contexts carry it as their default [fn]. *)

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
(** Clear architectural state for shell reuse; memory is untouched. The
    system's translated blocks stay: a block is revalidated against the
    memory it next runs on (see {!Vm.Translate}). *)

val run : ?fuel:int -> vcpu -> Vm.Cpu.exit_reason
(** The [KVM_RUN] ioctl: charges syscall entry, in-kernel checks and VM
    entry; executes the guest until it exits; charges VM exit and the
    return to user space, and returns the exit as the vCPU reported it.
    Resumable after I/O exits. Each return also
    bumps the [kvm_exits_total{reason}] counter
    ([hlt]/[hypercall]/[io_out]/[io_in]/[fault]/[fuel]). *)

val execute : vcpu -> symbols:(string * int) list -> (unit -> 'a) -> 'a
(** [execute vcpu ~symbols f] runs [f], the payload's execute phase, in
    an ["execute"] span, inside the profiler's bracket (which resolves
    PCs with [symbols]) and with the step hook of the profiler and
    ["instr"] probes on [vcpu], when they are attached. *)

val translation_stats : system -> Vm.Translate.stats
(** A copy of the counters of the system's translation cache, which all
    its vCPUs share. *)

val translation_words : system -> int
(** {!Vm.Translate.retained_words} of the system's translation cache:
    the heap its blocks retain between runs. *)

val build_shell : system -> core:int -> size:int -> mode:Vm.Modes.t -> vcpu
(** Background shell assembly for pipelined pool refill: the same
    VM + memory + vCPU construction as {!create_vm} /
    {!set_user_memory_region} / {!create_vcpu}, but charging {e no}
    cycles, opening no spans and consuming no fault-plan opportunities —
    the caller accounts the deterministic construction cost against an
    idle-cycle budget (see {!Wasp.Pool}). The vCPU is bound to [core]'s
    clock so a prewarmed shell later executes on its owning shard's
    clock. The [vm_creations]/[vcpu_creations] stats still count it;
    the creation counters do not. *)
