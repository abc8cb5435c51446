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

val cold_start_cycles : int    (** container create + runtime boot (~480 ms) *)
val warm_overhead_cycles : int (** invoker/proxy/activation path (~9 ms) *)
val keepalive_cycles : int64   (** idle container grace period (~60 s) *)
val v8_speedup : float         (** V8 vs. our interpreter on the same UDF *)

val v8_cycles : Vjs.Engine.charge -> int
(** What a container charges for one delivery of the engine's hook: 4
    cycles a node ({!Vjs.Jsinterp.cost_per_node} / [v8_speedup],
    truncated) and an explicit charge divided by [v8_speedup],
    truncated. Per node this is exactly what dividing each node's
    charge separately gave. *)

val create : clock:Cycles.Clock.t -> ?seed:int -> ?max_containers:int -> unit -> t

val register : t -> name:string -> source:string -> entry:string -> unit

val invoke : t -> now:int64 -> name:string -> input:bytes -> (string, string) result * int64
(** [invoke t ~now ...]: [now] is the platform's wall-clock (sim time)
    used for keep-alive expiry decisions. Returns the result and the
    invocation latency in cycles (cold starts included).
    @raise Unknown_function *)

val cold_starts : t -> int
val warm_hits : t -> int
