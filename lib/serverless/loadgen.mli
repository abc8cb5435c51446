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
  runtime:Wasp.Runtime.t ->
  request:(unit -> unit) ->
  profile:phase list ->
  unit ->
  bucket list * Dessim.Cores.t
(** Multi-core variant: closed-loop clients submit to a work-stealing
    {!Dessim.Cores} scheduler over [runtime]'s per-core clocks, whose
    frequency sets the buckets' seconds. Each request is real work —
    [request ()] must perform one invocation on the current core,
    charging its clock. The pool's reclaim policy is
    switched to [Scheduled], so async cleaning consumes idle windows and
    contended acquires stall. Its vtrace sites fire through
    {!Kvmsim.Kvm.fire}. Per-core utilization, steal and reclaim stats
    are exported to the runtime's telemetry hub (when attached) as
    [sched_*] metrics; the scheduler is returned for direct inspection. *)
