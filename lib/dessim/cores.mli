(** Multi-core task scheduler over per-core virtual clocks.

    Simulates N cores executing real (cycle-charged) work: each core owns
    a run queue of release-timed tasks and a {!Cycles.Clock.t} that only
    moves when the core is busy (the task's own charges) or accountably
    idle (waiting for its next release). Scheduling is sequential and
    deterministic — at every step the core that can start work earliest
    runs its next task — so same-seed runs are byte-identical regardless
    of how work interleaves across cores.

    Tasks are queued round-robin over the cores, and a core with an
    empty queue steals the head of the longest other queue (work
    stealing). Tasks migrate; the resources they use (e.g. pooled virtine shells)
    need not — the [switch] hook tells the execution substrate which core
    is about to run so it can retarget charging.

    Idle windows are offered to the [idle] hook before the clock jumps,
    which is how the shell pool's deferred cleaning
    ({!Wasp.Pool.drain}) gets its background cycles. *)

type t

type core_stats = {
  mutable executed : int;        (** tasks run on this core *)
  mutable stolen : int;          (** tasks this core stole from others *)
  mutable busy_cycles : int64;   (** clock movement inside tasks *)
  mutable idle_cycles : int64;   (** clock movement waiting for work *)
  mutable reclaim_cycles : int64;  (** idle cycles consumed by the hook *)
}

val create :
  ?switch:(int -> unit) ->
  ?idle:(core:int -> budget:int -> int) ->
  ?probe:(core:int -> reason:string -> cycles:int -> nr:int -> string -> unit) ->
  Cycles.Clock.t array ->
  t
(** One queue per clock. [switch core] is
    called just before a task runs on [core] (e.g.
    {!Wasp.Runtime.on_core}). [idle ~core ~budget] may spend up to
    [budget] cycles of an idle window on background work and returns the
    cycles actually used; the scheduler advances the clock over the whole
    window either way and accounts the used part as reclaim work.

    [probe ~core ~reason ~cycles ~nr site] fires the vtrace sites (e.g.
    through {!Kvmsim.Kvm.fire}): ["sched"] after each task ([nr] = its
    submission sequence), ["steal"] when a task migrates ([nr] = victim
    core) and ["idle"] for each accounted wait window ([nr] = the cycles
    the idle hook used). They fire outside the charged windows. *)

val submit : t -> ?at:int64 -> (core:int -> unit) -> unit
(** Enqueue a task released at absolute cycle [at] (default 0), on the
    next core's queue in round-robin order (stealing may still migrate
    it). Tasks may submit further tasks while running (closed-loop
    clients). *)

val run : t -> unit
(** Execute until every queue is empty. *)

val step : t -> bool
(** One scheduling decision; [false] when no work remains. *)

val pending : t -> int
val submitted : t -> int
val executed : t -> int
val steals : t -> int

val core_stats : t -> core_stats array
val utilization : t -> core:int -> float
(** [busy / (busy + idle)]; 0 before the core has done anything. *)

val set_probes : t -> Vtrace.Engine.t option -> unit
(** Replace [probe] by one firing straight into an engine (contexts
    carry no [fn] or trace id), or by none. Kept for the bench/perf
    harness; {!Serverless.Loadgen.run_cores} fires through the KVM
    system, where engines attach. *)
