(** The Wasp runtime: an embeddable micro-hypervisor for virtines (§5).

    A virtine client links against this library, registers host resources
    (files, sockets) and invokes functions as virtines. Each invocation
    provisions a hardware context (from the shell pool when warm), loads
    the image or restores a snapshot, marshals arguments into the guest at
    address 0, runs the guest, interposes on every hypercall under the
    client's policy, and recycles the shell. Any invocation of an image
    can be recorded as a [.vxr] file and replayed cycle for cycle; this
    module is the one place that seeds, finishes and judges those
    recordings (see {!record} and {!replay}). *)

type t

type clean_mode = [ `Sync | `Async ]

type reset_mode = [ `Memcpy | `Cow ]
(** How snapshotted virtines are reset between invocations. [`Memcpy]
    copies the whole footprint (the paper's implementation); [`Cow]
    retains a shell per snapshot key and restores only the pages the
    previous invocation dirtied — the SEUSS-style copy-on-write reset the
    paper anticipates in §7.2. A retained shell is used only while its
    key's snapshot exists: once the snapshot is dropped or evicted, the
    key's next invocation zeroes the shell back into the pool and
    provisions as usual. Both {!run} and {!run_native} reset this way.
    A retained shell runs on its home core: the invocation makes that
    core current before its root [invocation] span opens. *)

val create :
  ?seed:int ->
  ?pool:bool ->
  ?clean:clean_mode ->
  ?reset:reset_mode ->
  ?cores:int ->
  ?pool_capacity:int ->
  ?snapshot_capacity:int ->
  ?flight_capacity:int ->
  unit ->
  t
(** A fresh runtime. [pool] (default true) enables shell caching;
    [clean] (default [`Sync]) selects Figure 8's Wasp+C vs Wasp+CA
    cleaning; [reset] (default [`Memcpy]) selects the snapshot reset
    mechanism. [cores] (default 1) gives the simulated machine that many
    per-core virtual clocks and pool shards; [pool_capacity] bounds each
    shard (default 64, LRU eviction beyond it); [snapshot_capacity]
    bounds the snapshot store the same way (default 64 keys).
    [flight_capacity] sizes the always-attached VM-exit flight ring
    (default 128 — see {!Profiler.Flight.create}). *)

val clock : t -> Cycles.Clock.t
(** The current core's clock. *)

val core_clock : t -> int -> Cycles.Clock.t

val cores : t -> int

val on_core : t -> int -> unit
(** Make [core] current: subsequent invocations charge its clock and use
    its pool shard. The multi-core scheduler ({!Dessim.Cores}) calls this
    before each task; single-core users never need it. *)

val on_home_core : t -> snapshot_key:string option -> unit
(** Make current the core {!run} under [snapshot_key] will run on (a
    retained [`Cow] shell's home core), as {!run} itself does first: a
    caller that opens spans around {!run} calls it before them. *)

val set_reclaim_policy : t -> Pool.reclaim_policy -> unit
(** Select how [`Async] cleaning is realized (see {!Pool.reclaim_policy}).
    The scheduler switches the pool to [Scheduled] so cleans consume idle
    cycles and contended acquires stall observably. *)

val drain_reclaim : t -> core:int -> budget:int -> int
(** Spend up to [budget] idle cycles cleaning [core]'s reclaim queue;
    returns cycles spent. See {!Pool.drain}. *)

val set_prewarm : t -> Pool.prewarm option -> unit
(** Arm (or disarm) pipelined pre-boot of replacement shells (see
    {!Pool.set_prewarm}): idle cycles pre-build complete shells so a
    provision that would miss pays only a handoff. Works with the pool
    disabled too — {!run}/{!run_native} then adopt pre-built shells
    instead of creating fresh ones. *)

val prewarm_step : t -> core:int -> budget:int -> int
(** Spend up to [budget] idle cycles pre-building shells for [core];
    returns cycles spent. See {!Pool.prewarm_step}. *)

val env : t -> Hostenv.t
val kvm : t -> Kvmsim.Kvm.system
val pool_stats : t -> Pool.stats
val snapshots : t -> Snapshot_store.t

val drop_snapshot : t -> key:string -> unit
(** Forget a captured snapshot (e.g. another native [body] will run
    under the key; an image's code is checked on restore). *)

type run_stats = {
  invocations : int;        (** [wasp_invocations_total] *)
  exited : int;             (** [wasp_exited_total]: clean exits *)
  faulted : int;            (** [wasp_faulted_total]: contained guest faults *)
  fuel_exhausted : int;     (** [wasp_fuel_exhausted_total]: runaway guests killed *)
  hypercalls : int;         (** [wasp_hypercalls_total], across all invocations *)
  denied : int;             (** [wasp_denied_hypercalls_total] *)
  snapshot_restores : int;  (** [wasp_snapshot_restores_total] *)
}

val stats : t -> run_stats
(** Aggregate counters across every invocation this runtime has run
    (images and native payloads): a view, built by each call, of the
    lifetime {!Kvmsim.Kvm.tally} of the series named beside each field. *)

val set_telemetry : t -> Telemetry.Hub.t option -> unit
(** Attach (or detach) a telemetry hub — it must have been created with
    this runtime's {!clock}. Once attached, every invocation opens a root
    [invocation] span tiled by phase spans ([provision],
    [image_load]/[boot] or [snapshot_restore], [marshal], [execute] with
    nested [hypercall]/[snapshot_capture] spans, [clean]) whose depth-1
    durations sum exactly to the invocation's reported [cycles]; the
    pool and the KVM layer feed the same hub; and the [wasp_*] metrics
    (invocation counters, boot/invocation cycle histograms, pool and
    snapshot-store gauges) are kept up to date. The hub is held by the
    KVM system ({!Kvmsim.Kvm.set_telemetry}), the one attach point every
    layer reads. *)

val telemetry : t -> Telemetry.Hub.t option

(** {1 Observability: profiler, probes, flight recorder}

    Every observer but the [.vxr] recorder ({!record}) attaches to
    {!kvm}. *)

val set_profiler : t -> Profiler.Profile.t option -> unit
(** {!Kvmsim.Kvm.set_profiler}: attributes every {!run}'s execute-phase
    cycles to guest functions (the image's symbols) and opcodes, with
    the residue booked to [\[vmm\]]. *)

val set_probes : t -> Vtrace.Engine.t option -> unit
(** {!Kvmsim.Kvm.set_probes}. This layer fires
    ["hypercall"]/["hypercall_ret"] around every dispatch and
    ["ring_enter"]/["ring_op"] for the ring. Probes never change a
    guest-visible result (see [docs/vtrace.md]). *)

val probes : t -> Vtrace.Engine.t option

val flight : t -> Profiler.Flight.t
(** The VM-exit flight recorder ({!Kvmsim.Kvm.flight} of {!kvm}). *)

val flight_dump : t -> string option
(** The most recent black-box report, produced when a guest faulted or
    policy denied an exit-carried hypercall (per exit or as a ring op):
    the last ring of VM exits, annotated, ending at the faulting PC /
    violating hypercall. *)

val set_fault_plan : t -> Cycles.Fault_plan.t option -> unit
(** Arm (or disarm) a deterministic fault plan on the underlying KVM
    system (see {!Kvmsim.Kvm.set_fault_plan} for the sites, and
    {!Supervisor} for running invocations under one with retries and
    quarantine). The runtime consumes two extra sites itself:
    [snapshot_corrupt] — one opportunity per {!run} snapshot restore; a
    fire stomps the restored page under the guest PC with an
    invalid-opcode pattern, so the guest faults at its first fetch — and
    [ring_corrupt] — one opportunity per {!Hc.ring_enter} doorbell; a
    fire makes the drain treat the ring header as corrupt, completing
    the whole batch as a contained (retryable) guest fault. *)

(** {1 Invocation} *)

type outcome =
  | Exited of int64                 (** exit hypercall or clean halt *)
  | Faulted of Vm.Cpu.fault         (** the virtine died in isolation *)
  | Fuel_exhausted                  (** runaway guest, killed by Wasp *)

type result = {
  outcome : outcome;
  return_value : int64;   (** r0 at exit / the exit hypercall's argument *)
  output : bytes option;  (** published via [return_data] *)
  console : string;       (** bytes written to fd 1/2 *)
  cycles : int64;          (** end-to-end invocation latency *)
  hypercalls : int;
  denied : int;
  pointer_violations : int;
  from_snapshot : bool;
  from_pool : bool;
}

val run :
  t ->
  Image.t ->
  ?policy:Policy.t ->
  ?handlers:(int -> Inv.handler option) ->
  ?input:bytes ->
  ?args:int64 list ->
  ?conn:Hostenv.endpoint ->
  ?snapshot_key:string ->
  ?fuel:int ->
  ?inspect:(Vm.Memory.t -> Vm.Cpu.t -> unit) ->
  unit ->
  result
(** Run [image] as a virtine.

    - [policy] defaults to {!Policy.deny_all} (§2: default-deny).
    - [handlers] overrides canned handlers per hypercall number.
    - [input] is copied into the argument area at guest address 0
      (and is also the [get_data] source).
    - [args] are written as little-endian 64-bit words at address 0
      after [input] would be (use one or the other).
    - [snapshot_key] enables snapshotting: the first run executes the
      [snapshot] hypercall path and captures state; later runs restore it
      and skip boot. A key's snapshot restores only the code it was
      taken from: a run of an image whose code differs from the
      capturing image's drops the entry (its retained [`Cow] shell goes
      back to the pool) and boots.
    - [inspect] observes guest memory and registers after exit, before
      the shell is cleaned (used by milestone experiments).

    @raise Invalid_argument before anything is provisioned or claimed
    when the image's memory is under {!Vm.Boot.min_mem_size} of its
    mode, when [input] (or [args]) exceeds {!Layout.arg_area_size}, or
    when both [input] and [args] are given. *)

(** {1 Record and replay}

    The one place a [.vxr] recording ({!Profiler.Replay}) is seeded,
    finished and judged. *)

val recording :
  seed:int ->
  ?fault_plan:string ->
  Image.t ->
  Policy.t ->
  fuel:int ->
  (Profiler.Replay.t, string) Stdlib.result
(** The header of [image] run under [seed], [policy], [fuel] and the
    armed plan's one-line text (kept in the caller's spelling), with an
    empty transcript. [Error] for a {!Policy.Custom} predicate, which has
    no textual form. *)

val record :
  t ->
  ?fault_plan:string ->
  Image.t ->
  Policy.t ->
  fuel:int ->
  (Profiler.Replay.t, string) Stdlib.result
(** {!recording} under this runtime's own seed, attached to [t]. Every
    {!run} from then on appends its exit-carried hypercalls (an [out]
    exit, each ring op, the ring doorbell) as cycle-stamped events and
    finishes the recording with its cycles, outcome word and return
    value; a run ended by {!Kvmsim.Kvm.Injected_failure} is finished as
    ["faulted"], 0 cycles, return value 0. Kept attached over several
    runs (a supervisor's retries), the recording holds every run's events
    and the last run's trailer. The caller arms the plan itself and runs
    with the recorded [policy] and [fuel]. *)

val of_recording :
  Profiler.Replay.t ->
  (Image.t * Policy.t * Cycles.Fault_plan.t option, string) Stdlib.result
(** The image, policy and freshly parsed fault plan a recording
    describes; [Error] names an unknown mode, policy or plan, or a
    memory under {!Vm.Boot.min_mem_size} of the mode. *)

val replay :
  ?attach:(t -> Image.t -> Hostenv.endpoint option) ->
  string ->
  (Profiler.Replay.t * string list, string) Stdlib.result
(** [replay text] parses a [.vxr] text, rebuilds what it describes and
    runs it once, recording afresh, on a fresh runtime under the
    recorded seed. [attach] is called on that runtime before the run to
    attach observers and build the host environment; it returns the
    connection for {!run}. Returns the fresh recording and the verdict:
    every {!Profiler.Replay.diff} divergence, or, when there is none and
    the fresh recording does not serialize to exactly [text], the first
    line that differs. [[]] means reproduced byte for byte. [Error] for
    unparseable or unrunnable input and for a host exception. *)

(** {1 Native-payload virtines}

    A native payload runs host-implemented code {i in virtine context}:
    it may only touch the virtine's guest memory and must reach all
    external services through the same policy-checked hypercall path,
    with the same charged crossing costs. This is how we embed the
    JavaScript engine (§6.5) without compiling it to vx code. *)

module Native_ctx : sig
  type ctx

  val mem : ctx -> Vm.Memory.t

  val charge : ctx -> int -> unit
  (** Account guest-side computation. *)

  val alloc : ctx -> int -> int
  (** Bump-allocate guest heap memory; returns a guest address.
      Past the end of guest memory it raises {!Vm.Memory.Fault}, which
      ends the invocation as [Faulted (Memory_oob _)] and cleans its
      shell, as any guest access out of bounds does. *)

  val hypercall : ctx -> int -> int64 array -> int64
  (** Cross into the client: charges the full exit/entry round trip, then
      applies policy and the canned handlers exactly as an [out]
      instruction would. *)

  val hypercall_batch : ctx -> (int * int64 array) list -> int64 list
  (** The native analogue of the guest hypercall ring: dispatch the ops
      in order through one crossing. The first op pays the full
      round trip; each later op only the in-kernel
      [Costs.hypercall_dispatch]. Returns results in submission order
      ([[]] for an empty batch). *)

  val offer_snapshot_state : ctx -> (unit -> Univ.t) -> unit
  (** Register the factory stored alongside a [snapshot] hypercall; on
      restore it materializes the state the memory image represents. *)
end

val run_native :
  t ->
  name:string ->
  ?mem_size:int ->
  ?policy:Policy.t ->
  ?input:bytes ->
  ?snapshot_key:string ->
  body:(Native_ctx.ctx -> restored:Univ.t option -> int64) ->
  unit ->
  result
(** Run [body] through the same invocation lifecycle as {!run}:
    provision a shell, boot to long mode (or restore the snapshot under
    the runtime's {!reset_mode}, in which case [restored] carries the
    materialized state), run [body], then clean or retain the shell.
    With a hub attached the phase spans tile the invocation exactly as
    for {!run}. [body]'s hypercalls go through policy and the canned
    handlers but are not written to a replay recorder, and a restore
    never takes the [snapshot_corrupt] fault-plan stomp. A native
    payload has no code for its snapshot to be checked against: a
    caller that puts another [body] behind a [snapshot_key] drops the
    key first ({!drop_snapshot}). Raises [Invalid_argument] as {!run}
    does for a memory under {!Vm.Boot.min_mem_size}. *)
