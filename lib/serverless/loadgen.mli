(** Locust-style closed-loop load generator (Figure 15).

    "We produce a series of concurrent function requests (from multiple
    clients) against both platforms ... This invocation pattern involves
    an initial ramp-up period that leads to two bursts, which then ramp
    down." Clients are closed-loop: each waits for its response, thinks
    briefly, and fires again, so achieved throughput reflects platform
    latency. *)

type phase = { duration_s : float; clients : int }

val bursty_profile : phase list
(** Ramp-up, burst, dip, second burst, ramp-down. *)

type bucket = {
  t_s : float;          (** end of the 1-second bucket *)
  completed : int;
  rps : float;          (** achieved throughput in this bucket *)
  mean_ms : float option;  (** mean response latency; [None] when idle *)
  p99_ms : float option;
}

val run :
  ?workers:int ->
  ?think_time_s:float ->
  service:(now:int64 -> int64) ->
  profile:phase list ->
  unit ->
  bucket list
(** Simulate the profile against a [workers]-wide FIFO server whose
    per-request duration comes from [service ~now] (cycles; [now] is the
    sim time the request starts service, for keep-alive decisions).
    Returns one-second buckets covering the whole run, in seconds at
    {!Cycles.Clock.default_freq_ghz}. *)

val run_cores :
  ?think_time_s:float ->
  ?steal:bool ->
  ?on_complete:(latency:int64 -> unit) ->
  runtime:Wasp.Runtime.t ->
  request:(unit -> unit) ->
  profile:phase list ->
  unit ->
  bucket list * Dessim.Cores.t
(** Multi-core variant: closed-loop clients submit to a
    {!Dessim.Cores} scheduler over [runtime]'s per-core clocks, whose
    frequency sets the buckets' seconds. Each
    request is real work — [request ()] must perform one invocation on
    the current core, charging its clock. The pool's reclaim policy is
    switched to [Scheduled], so async cleaning consumes idle windows and
    contended acquires stall. Per-core utilization, steal and reclaim
    stats are exported to the runtime's telemetry hub (when attached) as
    [sched_*] metrics; the scheduler is returned for direct inspection.
    [on_complete] fires after every finished request with its queueing +
    service latency, on the completing core's clock — the hook for
    feeding a {!Telemetry.Slo} from a load run. *)

val export_core_stats : Wasp.Runtime.t -> Dessim.Cores.t -> unit
(** Publish a scheduler's per-core gauges ([sched_core<i>_utilization],
    [_busy_cycles], [_reclaim_cycles]) to the runtime's hub, when one is
    attached, and count its steals and tasks as [sched_steals_total] /
    [sched_tasks_total] (see {!Kvmsim.Kvm.count}). *)
