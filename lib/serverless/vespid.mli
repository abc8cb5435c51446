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
    with the request payload (an array of byte values). Registering a
    name again replaces its function and drops the old one's snapshot. *)

val registered : t -> string list

val mem : t -> name:string -> bool
(** Whether a function is registered under [name]. *)

val on_home_core : t -> name:string -> unit
(** Make current the core an invocation of [name] runs on (its retained
    [`Cow] shell's home core, see {!Wasp.Runtime.on_home_core}), as
    {!invoke} does before its span opens; nothing for an unknown name. *)

val invoke : t -> name:string -> input:bytes -> (string, string) result
(** Run one invocation in a distinct virtine; charges the Wasp clock.
    Returns the function's string result or a JS error.
    @raise Unknown_function *)

val invoke_timed : t -> name:string -> input:bytes -> (string, string) result * int64
(** Like {!invoke} but also returns the invocation latency in cycles.
    With a hub attached, the latency lands in [vespid_invoke_cycles]
    twice — the plain family and an [fn]-labeled series — both stamped
    with the active trace id as an exemplar when tracing is on. *)
