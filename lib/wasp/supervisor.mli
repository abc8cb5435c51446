(** Virtine supervision: retries, watchdogs, quarantine.

    A supervisor wraps a {!Runtime.t} and runs invocations under a
    failure policy: each attempt gets its own fuel deadline (the
    watchdog), failed attempts are retried with deterministic exponential
    backoff charged to the virtual clock, and images that keep failing
    are quarantined for a cooldown window. Failures are classified into a
    small taxonomy:

    - {!Fault} — the guest died in isolation (a contained
      {!Runtime.Faulted} exit) or provisioning failed underneath it
      ({!Kvmsim.Kvm.Injected_failure}). Retryable.
    - {!Timeout} — the fuel watchdog killed a runaway attempt
      ({!Runtime.Fuel_exhausted}). Retryable.
    - {!Policy} — the invocation completed but tripped the hypercall
      policy (denied hypercalls, with [fail_on_denied] set). Terminal:
      retrying a policy violation only repeats it.
    - {!Overload} — the supervisor refused to run at all: the image is
      quarantined. Terminal for this invocation.

    Everything the supervisor does is deterministic: backoff delays are
    pure functions of the attempt number, quarantine windows are measured
    on the virtual clock, and retries re-enter the same seeded runtime —
    so a chaos run under a fixed {!Cycles.Fault_plan} produces the same
    retry schedule and the same final cycle count every time. *)

type error_class = Fault | Timeout | Policy | Overload

val error_class_to_string : error_class -> string
(** ["fault"], ["timeout"], ["policy"], ["overload"]. *)

type config = {
  max_retries : int;  (** retries after the first attempt (default 3) *)
  backoff_base : int;
      (** virtual cycles charged before the first retry (default
          10_000) *)
  backoff_factor : int;
      (** backoff multiplier per further retry (default 2) *)
  attempt_fuel : int option;
      (** per-attempt fuel deadline; [None] uses the runtime default *)
  fail_on_denied : bool;
      (** classify completed invocations with denied hypercalls as
          {!Policy} failures (default false) *)
  quarantine_threshold : int;
      (** consecutive failed invocations before an image is quarantined
          (default 3) *)
  quarantine_cooldown : int64;
      (** virtual cycles an image stays quarantined (default
          10_000_000) *)
}

val default_config : config

type stats = {
  supervised : int;  (** [wasp_supervised_total]: supervised invocations started *)
  succeeded : int;
  failed : int;
      (** [wasp_supervised_failures_total]: invocations that exhausted
          their attempts or failed terminally *)
  retries : int;  (** [wasp_retries_total]: attempts beyond the first, in total *)
  backoff_cycles : int64;  (** virtual cycles spent backing off *)
  quarantine_rejections : int;  (** [wasp_quarantine_rejections_total] *)
}
(** A view, built by each {!stats} call. A field named beside a series
    is that series' lifetime {!Kvmsim.Kvm.tally} on the runtime's KVM
    system, so it counts every supervisor of that runtime;
    [succeeded] and [backoff_cycles] are this supervisor's plain fields,
    as no series counts them. *)

type outcome = {
  result : (Runtime.result, error_class * string) Stdlib.result;
      (** the successful attempt's result, or why the supervisor gave
          up *)
  attempts : int;  (** attempts actually run (0 when quarantined) *)
  retries : int;  (** [max 0 (attempts - 1)] *)
  backoff_cycles : int;  (** virtual cycles this invocation backed off *)
  cycles : int64;
      (** end-to-end virtual cycles, attempts plus backoff *)
}

type t

val create : ?config:config -> Runtime.t -> t

val runtime : t -> Runtime.t
val stats : t -> stats

val set_slo : t -> Telemetry.Slo.t option -> unit
(** Attach an availability objective: every supervised invocation then
    records one event — good on success, bad on an exhausted/terminal
    failure or a quarantine rejection — re-evaluating the burn-rate
    rules on the spot. *)

val run :
  t ->
  Image.t ->
  ?policy:Policy.t ->
  ?args:int64 list ->
  ?snapshot_key:string ->
  unit ->
  outcome
(** Run [image] under supervision. The image's name is its key for
    quarantine accounting. Metrics (when the
    runtime has a telemetry hub): [wasp_supervised_total],
    [wasp_supervised_failures_total] (plain and [class]-labeled),
    [wasp_retries_total], [wasp_quarantine_rejections_total], and the
    [wasp_quarantined_images] gauge; each retry also leaves a
    [supervisor_retry] instant in the span stream. Spans: the whole
    invocation is a [supervised] span whose children are sibling
    [attempt] spans (backoff charged inside its attempt, so attempts
    tile the parent exactly). *)

val quarantined : t -> key:string -> bool
(** Is [key] quarantined as of the runtime's current virtual clock? *)

val release_quarantine : t -> key:string -> unit
(** Manually lift [key]'s quarantine and forget its failure streak. *)
