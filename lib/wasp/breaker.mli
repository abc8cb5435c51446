(** Consecutive-failure circuit breaker on the virtual clock: the one
    policy behind the gateway's per-function breaker
    ([Serverless.Gateway], §7.1) and the supervisor's per-key quarantine
    ({!Supervisor}), which each keep their own reporting.

    [threshold] consecutive failures open it. An open breaker refuses
    work until [cooldown] cycles have passed since it opened, then
    admits a probe and is half-open: a failure opens it again at once, a
    success closes it. Every answer is a pure function of the calls and
    their [now] stamps, so a run replays to the same decisions. *)

type state = Closed | Open | Half_open

type t

val create : threshold:int -> cooldown:int64 -> t
(** A closed breaker; its callers check [threshold >= 1]. *)

val state : t -> now:int64 -> state
(** An open breaker past its cooldown reads [Half_open], though only
    {!admit} moves it there. *)

type admission =
  | Admitted  (** closed or half-open: run the work *)
  | Probe  (** this call moved the breaker from open to half-open *)
  | Rejected  (** open and cooling down *)

val admit : t -> now:int64 -> admission

val succeed : t -> unit
(** A success, or a manual release: forget the streak and close. *)

val fail : t -> now:int64 -> bool
(** A failure; [true] when it opened the breaker (the [threshold]-th in
    a row while closed, or any while half-open). *)

val failures : t -> int
(** The streak of failures: [threshold] once opened, 0 after {!succeed}. *)
