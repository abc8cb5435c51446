(** Vespid's web front end (§7.1).

    "Users register JavaScript functions via a web application, which
    produces requests to our framework's main endpoint." This module is
    that endpoint: a request router over raw HTTP bytes, hardened with a
    per-function circuit breaker and token-bucket load shedding (see
    [docs/robustness.md]).

    Routes:
    - [POST /register/NAME?entry=FN] with the JS source as body -> 201
    - [POST /invoke/NAME] with the payload as body -> 200 + result
    - [GET /functions] -> 200 + newline-separated names
    Anything else -> 404/405; JS failures -> 500. Invokes may also be
    refused before reaching the platform: 429 when load is shed, 503
    while a function's breaker is open. *)

type t

type breaker_state = Wasp.Breaker.state =
  | Closed  (** healthy: requests flow *)
  | Open  (** failing: invokes are refused with 503 until the cooldown *)
  | Half_open  (** cooldown elapsed: one probe request is admitted *)

type breaker_config = {
  failure_threshold : int;
      (** consecutive 500s before the breaker opens (default 5) *)
  cooldown : int64;
      (** virtual cycles an open breaker refuses requests before
          admitting a probe (default 100_000_000) *)
}

type shed_config = {
  burst : int;  (** token-bucket capacity *)
  refill_per_s : float;  (** sustained admitted requests per virtual second *)
}

val create : ?breaker:breaker_config -> ?shed:shed_config -> Vespid.t -> t
(** [shed] defaults to off (no load shedding); the circuit breaker is
    always armed. Timings (breaker cooldown, bucket refill) are measured
    on the platform runtime's virtual clock, so gateway behaviour is
    deterministic and replayable. *)

(** {1 Service-level objectives} *)

val enable_slos : t -> unit -> unit
(** Declare the gateway's objectives on the platform hub:
    - [gateway_availability]: 99% of invoke requests are good. Shed and
      breaker-rejected requests count bad; 404s for unknown names do
      not count.
    - [gateway_latency]: 99% of successful invokes take under 50M
      virtual cycles (~18.6 ms at 2.69 GHz).

    Both have a rolling period of 10G virtual cycles (~3.7 virtual
    seconds), from which the burn-rate windows are derived. Every
    invoke then feeds both and re-evaluates the burn-rate alerts.
    @raise Invalid_argument when the platform runtime has no telemetry
    hub. *)

val availability_slo : t -> Telemetry.Slo.t option
(** [gateway_availability], [None] until {!enable_slos}. *)

val latency_slo : t -> Telemetry.Slo.t option
(** [gateway_latency], [None] until {!enable_slos}. *)

val parse_register_target : string -> string * string
(** [parse_register_target "name?entry=fn"] is [("name", "fn")]; the
    entry defaults to ["main"]. Pairs split on the first ['='] only, so
    the entry value may itself contain ['=']. *)

val handle : t -> string -> string
(** [handle t raw_request] routes one HTTP request and returns the raw
    HTTP response. Never raises on malformed input (400). A
    [POST /invoke/NAME] is served on the next core in round-robin order,
    or on the home core of NAME's retained [`Cow] shell if it has one,
    made current before the request's [route] span opens, so its
    admission decisions (shedding, breaker cooldown) read that core's
    clock; the order advances only when a request is admitted. A NAME
    the platform does not know is answered 404 after the shedding check
    and before any breaker, so it stores nothing. Counters
    on the runtime's hub: [gateway_requests_total], [gateway_shed_total],
    [gateway_breaker_rejections_total], and the [fn]-labeled
    [wasp_breaker_state] gauge (0 closed, 0.5 half-open, 1 open). *)

val breaker_state : t -> name:string -> breaker_state
(** [name]'s breaker as of the virtual clock (an [Open] breaker whose
    cooldown has elapsed reports [Half_open]). A name never admitted,
    registered or not, reports [Closed] and stores nothing. *)

val shed_count : t -> int
(** Requests refused with 429 by load shedding: a view of the lifetime
    {!Kvmsim.Kvm.tally} of [gateway_shed_total] on the platform
    runtime's KVM system, so it counts every gateway of that runtime. *)

val breaker_rejections : t -> int
(** Invokes refused with 503 by an open breaker: a view, as
    {!shed_count} is, of [gateway_breaker_rejections_total]. *)
