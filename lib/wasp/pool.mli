(** The virtine shell pool (§5.2, Figure 6).

    Creating a hardware virtual context is the expensive part of a
    virtine ([KVM_CREATE_VM] allocates the VMCS/VMCB in the kernel).
    Wasp therefore recycles contexts: when a virtine returns, its memory
    is cleared — "preventing information leakage" — and the shell is
    cached for the next request. Cleaning can be charged synchronously
    (Wasp+C in Figure 8) or deferred to background work (Wasp+CA), which
    brings provisioning within a few percent of a bare vmrun.

    The pool is sharded per simulated core: shells live on the shard of
    the core that created them ([shell.home]) and never migrate, so a
    recycled shell's vCPU always bills the clock it was created on.
    Each shard is bounded by [capacity] and evicts least-recently-used
    shells beyond it.

    Async cleaning has two realizations. Under the default {!Eager}
    policy the memset cost is booked as background work at release time
    and the shell is immediately reusable (a dedicated cleaner thread
    that always keeps up — the standalone Wasp+CA model). Under
    {!Scheduled} — set by the multi-core scheduler — released shells sit
    on their shard's reclaim queue until idle cycles {!drain} them; an
    acquire that finds only queued shells stalls for the remaining clean
    cost, which is how deferred cleaning shows up in tail latency. *)

type shell = {
  vm : Kvmsim.Kvm.vm;
  vcpu : Kvmsim.Kvm.vcpu;
  mem : Vm.Memory.t;
  mem_size : int;
  home : int;  (** core whose shard owns this shell *)
}

type clean_mode = Sync | Async

type reclaim_policy =
  | Eager      (** async clean booked as background work at release *)
  | Scheduled  (** async clean deferred to the per-core reclaim queue *)

type stats = {
  mutable created : int;     (** shells built from scratch *)
  mutable reused : int;      (** pool hits (including stalled and prewarm hits) *)
  mutable cleans : int;
  mutable background_cycles : int64;  (** async cleaning + prewarm work *)
  mutable evicted : int;     (** shells dropped by LRU eviction *)
  mutable clean_stalls : int;         (** acquires that waited on a clean *)
  mutable stall_cycles : int64;       (** cycles spent in those waits *)
  mutable prewarmed : int;            (** shells pre-built on idle cycles *)
  mutable prewarm_hits : int;         (** acquires served from the prewarm queue *)
}

type prewarm = {
  pw_mem_size : int;   (** guest region size to pre-build *)
  pw_mode : Vm.Modes.t;
  pw_target : int;     (** per-shard depth to keep pre-built *)
}

type t

val create : ?capacity:int -> Kvmsim.Kvm.system -> clean:clean_mode -> t
(** One shard per core of the system. [capacity] (default 64) bounds each
    shard's cached-shell count; raises [Invalid_argument] if < 1. *)

val stats : t -> stats

(** {1 Observers}

    The pool holds no observers of its own: it reports to the hub and
    the probe engine attached to its {!Kvmsim.Kvm.system}
    ({!Kvmsim.Kvm.set_telemetry}, {!Kvmsim.Kvm.set_probes}).

    With a hub, hits/misses/cleans/evictions and clean stalls become
    [wasp_pool_*] counters and instant events, async cleaning updates
    the [wasp_pool_background_cycles] gauge, and cached and queued shell
    counts are tracked by the [wasp_pool_size] and
    [wasp_pool_reclaim_depth] gauges (with [_core<i>] variants on
    multi-core systems).

    With a probe engine, the pool fires ["pool_acquire"] (reason
    [hit]/[stall]/[prewarm]/[miss]; a stall's [cycles] is what the
    acquire paid for the in-flight clean), ["pool_release"] (reason
    [sync]/[async]/[scheduled]; [cycles] = the clean's cost),
    ["pool_evict"] (reason [lru]) and ["pool_prewarm"] (reason
    [build]/[take]). [nr] carries the shell footprint. *)

val set_reclaim_policy : t -> reclaim_policy -> unit
val reclaim_policy : t -> reclaim_policy

val acquire : t -> mem_size:int -> mode:Vm.Modes.t -> shell * bool
(** Returns a clean shell and whether it came from the pool, searching
    the current core's shard. A fresh shell charges the full KVM
    creation path; a pooled one only resets vCPU state. Under
    {!Scheduled}, if the shard's only matching shells are still on the
    reclaim queue, the acquire takes the oldest one and charges the
    remaining clean cost to the current core (a clean stall — still a
    pool hit). *)

val create_shell : t -> mem_size:int -> mode:Vm.Modes.t -> shell
(** Build a fresh shell on the current core through the charged KVM
    creation path ([KVM_CREATE_VM] + memslot + [KVM_CREATE_VCPU]) and
    count it in [stats.created]. Emits no counter, instant or probe —
    {!acquire} does that around its miss path. Exposed for pool-disabled
    runtimes, whose every provision is a creation. *)

val release : t -> shell -> unit
(** Clear the shell (memset of the guest region, then reset the dirty
    bitmap) and return it to its home shard. [Sync] charges the memset
    on the current core; [Async] books it as background work
    ({!Eager}) or queues the shell for {!drain} ({!Scheduled}). *)

val drain : t -> core:int -> budget:int -> int
(** Spend up to [budget] cycles cleaning [core]'s reclaim queue, front
    first, with partial progress carried across calls. Finished shells
    enter the shard cache. Returns the cycles actually spent. The caller
    (the scheduler's idle path) is responsible for advancing the core's
    clock by the returned amount. *)

(** {1 Pipelined pre-boot (async refill)}

    The paper's async clean-up moves shell {e cleaning} off the critical
    path; prewarming moves shell {e creation} off it too. Configure a
    prewarm target and idle cycles ({!prewarm_step}) pre-build complete
    never-run shells (VM + memory + vCPU, via {!Kvmsim.Kvm.build_shell});
    an acquire that would otherwise miss adopts one for the price of a
    single ioctl handoff instead of the full KVM creation path. *)

val set_prewarm : t -> prewarm option -> unit
(** Arm (or disarm) pipelined pre-boot. Raises [Invalid_argument] on a
    non-positive target or mem_size. *)

val prewarm : t -> prewarm option

val prewarm_step : t -> core:int -> budget:int -> int
(** Pre-build shells for [core]'s shard until its prewarm queue reaches
    the configured target or [budget] cycles are used ({!shell_cost}
    each, booked as background work). Returns the cycles spent; as with
    {!drain}, the caller advances the core's clock. No-op when prewarm
    is unconfigured. *)

val take_prewarmed : t -> mem_size:int -> mode:Vm.Modes.t -> shell option
(** Adopt a pre-built shell from the current core's shard, if the head
    of its prewarm queue matches [mem_size]: charges one
    [Costs.ioctl_syscall] handoff on the current clock and resets the
    vCPU into [mode]. Under the {!Eager} reclaim policy the taken shell
    is immediately replaced as background work (the standalone
    keeps-up model); under {!Scheduled}, refill waits for idle
    {!prewarm_step} calls. Used by {!acquire} on what would otherwise
    be a miss; exposed for pool-disabled runtimes. *)

val prewarm_depth : t -> core:int -> int
(** Pre-built shells waiting on [core]'s shard. *)

val shell_cost : int
(** Deterministic cycles to build one shell from scratch
    (KVM_CREATE_VM + memslot + KVM_CREATE_VCPU, jitter-free). *)

val size : t -> int
(** Shells currently cached (all shards; excludes the reclaim queues). *)

val shard_sizes : t -> int array
(** Cached-shell count per core. *)

val reclaim_depth : t -> core:int -> int
(** Shells awaiting cleaning on [core]'s reclaim queue. *)

val reclaim_pending : t -> int
(** Total queued shells across all cores. *)
