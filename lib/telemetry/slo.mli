(** Service-level objectives with multi-window, multi-burn-rate alerting
    on the virtual clock.

    An objective declares what fraction of events must be {e good} over
    a rolling [period] of virtual-time cycles — availability (the caller
    says good/bad) or a latency target (good iff the observed latency is
    under a threshold, the histogram-free stand-in for "p99 under X").
    The {e burn rate} over a window is the observed bad fraction divided
    by the error budget [1 - target]: burn 1.0 spends the budget exactly
    over the period. An alerting rule fires when both its long and short
    windows burn past a threshold (the short window makes alerts clear
    promptly after the storm passes), following the multiwindow
    multi-burn-rate recipe from the Google SRE workbook.

    Every [record] re-evaluates the rules, updates [slo_*] gauges and
    counters in the hub's registry, and emits a [slo_alert] instant span
    on each firing/cleared transition — so alert timelines live in the
    same trace as the requests that caused them, and replay
    deterministically. Each series registers when it is first updated,
    so the exposition lists them in first-use order.

    Windows are exact, not bucketed. Each distinct window keeps running
    good/bad counts over one stamp-sorted event buffer and slides
    forward as the newest stamp advances, so [record] costs amortised
    O(1) however many events the windows hold. Per-core clocks (see {!Hub.set_clock})
    can stamp an event behind the newest one; it is inserted in stamp
    order, at a cost proportional to the events stamped after it, and
    the counts stay exactly those of the events inside each window. *)

type objective =
  | Availability            (** caller classifies each event good/bad *)
  | Latency_under of int64  (** good iff latency (cycles) <= threshold *)

type t

val create :
  hub:Hub.t ->
  name:string ->
  ?objective:objective ->
  target:float ->
  period:int64 ->
  unit ->
  t
(** Declare an objective. [target] is the required good fraction, inside
    (0, 1), e.g. [0.99]. Two alerting rules watch it, the classic pair:
    [fast] pages when ~5% of the budget burns in [period/100] (burn 5x,
    short window 1/12 of that), [slow] when ~10% burns in [period/20]
    (burn 2x). The declared target is exported as
    [slo_objective{slo="name"}].
    @raise Invalid_argument on a target outside (0, 1) or a [period]
    below 1. *)

val record : t -> good:bool -> unit
(** Feed one event stamped at the hub clock's current cycle, then
    re-evaluate every rule. A stamp later than any before it slides
    every window forward; events that leave the longest window are
    dropped.

    The series, labelled [slo="name"] (and [rule] where per rule):
    [slo_events_total] and [slo_bad_events_total] count the events fed
    so far; [slo_burn_rate] is each rule's long-window burn and
    [slo_alert_active] 1 while it fires; [slo_alerts_fired_total] and
    [slo_alerts_cleared_total] count its transitions. *)

val record_latency : t -> int64 -> unit
(** Feed one latency observation against a {!Latency_under} objective.
    @raise Invalid_argument if the objective is {!Availability}. *)

val alerting : t -> bool
(** Is any rule currently firing? *)

val burn_rate : t -> rule:string -> float * float
(** Current [(long, short)] window burn rates of the named rule.
    @raise Invalid_argument on a rule other than [fast] or [slow]. *)

val peak_burn : t -> float
(** Highest long-window burn rate seen by any rule so far. *)

val alerts_fired : t -> int
val alerts_cleared : t -> int
