(** Container-based serverless baseline (the paper's vanilla OpenWhisk
    comparison in Figure 15).

    Models the standard container lifecycle: a cold invocation pays
    container creation plus Node.js/V8 runtime startup (hundreds of
    milliseconds); warm invocations reuse a per-function container kept
    alive for a grace period and pay only the invoker proxy overhead plus
    execution. Execution itself uses the same JS engine with a JIT-class
    speedup factor, since OpenWhisk runs V8 rather than Duktape. *)

type t

exception Unknown_function of string

val v8_speedup : float         (** V8 vs. our interpreter on the same UDF *)

val v8_cycles : Vjs.Engine.charge -> int
(** What a container charges for one delivery of the engine's hook: 4
    cycles a node ({!Vjs.Jsinterp.cost_per_node} / [v8_speedup],
    truncated) and an explicit charge divided by [v8_speedup],
    truncated. Per node this is exactly what dividing each node's
    charge separately gave. *)

val create : clock:Cycles.Clock.t -> ?max_containers:int -> unit -> t
(** A platform that charges [clock]. Its cold-start (~480 ms) and warm
    invoker overhead (~9 ms) are jittered from a fixed seed, so a run is
    deterministic. *)

val register : t -> name:string -> source:string -> entry:string -> unit

val invoke : t -> now:int64 -> name:string -> input:bytes -> (string, string) result * int64
(** [invoke t ~now ...]: [now] is the platform's wall-clock (sim time)
    used for keep-alive expiry decisions: a container idle for more than
    161.4G cycles (60 s at 2.69 GHz) is reaped, and its next request
    starts cold. Returns the result and the invocation latency in cycles
    (cold starts included).
    @raise Unknown_function *)

val cold_starts : t -> int
val warm_hits : t -> int
