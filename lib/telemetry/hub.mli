(** A telemetry hub: one span sink plus one metrics registry, stamped
    from one virtual clock.

    This is the object instrumentation sites share. A {!Wasp.Runtime}
    (and, through it, the pool, the KVM simulation and the serverless
    layer) is given a hub with [Wasp.Runtime.set_telemetry]; exporters
    ({!Chrome}, {!Prometheus}, {!Summary}) read it back out. *)

type t

val create : ?capacity:int -> clock:Cycles.Clock.t -> unit -> t
(** [capacity] bounds the span sink (default 65536 items). The hub MUST
    be created with the clock of the runtime it instruments, or span
    stamps will not line up with charged cycles. *)

val clock : t -> Cycles.Clock.t

val set_clock : t -> Cycles.Clock.t -> unit
(** Retarget the hub (and its span sink) to another clock. Multi-core
    runs switch the hub to the active core's clock on every core switch
    so spans are stamped on the timeline of the core doing the work. *)
val set_core : t -> int -> unit
(** Stamp subsequent spans/instants with this core id (see
    {!Span.set_core}); [Kvmsim.Kvm.set_core] calls this together with
    {!set_clock} on every core switch. *)

val spans : t -> Span.sink
val metrics : t -> Metrics.t

(** {1 Trace context} *)

val enable_tracing : t -> seed:int -> unit
(** Attach a fresh {!Tracectx.t} to the span sink: from here on every
    root span starts a trace and nested spans carry
    [trace_id]/[span_id]/[parent_id] args (see {!Span.set_tracer}).
    Same seed, byte-identical ids. {!observe} starts stamping histogram
    exemplars with the active trace id. *)

val current_trace : t -> int64 option
(** Trace id of the innermost open span ([None] when tracing is off or
    no span is open). *)

(** {1 Span conveniences} *)

val enter : t -> ?args:(string * string) list -> string -> unit
val leave : t -> ?args:(string * string) list -> unit -> unit
val with_span : t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
val instant : t -> ?args:(string * string) list -> string -> unit

(** {1 Metric conveniences (find-or-register by name)} *)

val observe : t -> ?labels:(string * string) list -> string -> int64 -> unit
(** Record into the histogram series ([name], [labels]); when tracing is
    on and a span is open, the sample carries the active trace id as an
    exemplar. *)

val set_gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> float -> unit
(** Set the gauge series ([name], [labels]), registered with [help] when
    this is its first use (see {!Metrics.gauge}). *)

val clear_spans : t -> unit
(** Drop retained spans (e.g. between benchmark arms); metrics persist. *)
