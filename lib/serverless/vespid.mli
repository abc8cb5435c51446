(** Vespid: the prototype serverless platform of §7.1 (Figure 15).

    "Users register JavaScript functions ... requests are handled by a
    concurrent server which runs each serverless function in a distinct
    virtine (rather than a container) by leveraging the Wasp runtime
    API." Every invocation gets a fresh virtine; the shell pool,
    post-init snapshot and no-teardown reset keep cold starts at
    microsecond scale. *)

type t

exception Unknown_function of string

val create : Wasp.Runtime.t -> t

val runtime : t -> Wasp.Runtime.t
(** The Wasp runtime invocations execute on (also where the platform
    finds the telemetry hub: each invocation opens a per-request
    [invoke] span and bumps the [vespid_*] metrics when one is
    attached). *)

val register : t -> name:string -> source:string -> entry:string -> unit
(** Register a JS function. [entry] names the function the platform calls
    with the request payload (an array of byte values). *)

val registered : t -> string list

val invoke : t -> name:string -> input:bytes -> (string, string) result
(** Run one invocation in a distinct virtine; charges the Wasp clock.
    Returns the function's string result or a JS error.
    @raise Unknown_function *)

val invoke_timed : t -> name:string -> input:bytes -> (string, string) result * int64
(** Like {!invoke} but also returns the invocation latency in cycles.
    With a hub attached, the latency lands in [vespid_invoke_cycles]
    twice — the plain family and an [fn]-labeled series — both stamped
    with the active trace id as an exemplar when tracing is on. *)

val invoke_timed_on :
  t -> core:int -> name:string -> input:bytes -> (string, string) result * int64
(** {!invoke_timed} pinned to a core — the latency is measured on that
    core's clock, so callers on another core (the gateway) get a
    consistent per-invocation figure. *)
