(** The probe engine: compiled probes, firing, and output.

    Sites call {!fire} with a {!Ctx.t}; the engine runs every attached
    probe for that site — predicate, then keyed aggregation — charging
    zero simulated cycles. The host layer ([Kvmsim.Kvm], where an engine
    attaches) builds the context: detached sites pay a single [None]
    check, and attached-but-unwanted sites one hashtable miss ({!wants})
    with no context built. A per-probe firing budget bounds work and
    memory: once a probe has fired [budget] times, further matches are
    dropped and counted (exported as [vtrace_drops_total]).

    Determinism contract: probes never mutate guest-visible state, never
    read wall-clock time or unseeded randomness, and never advance a
    virtual clock — so attach-vs-detach and record-vs-replay produce
    identical guest results and identical aggregate tables at a fixed
    seed. *)

type t

val of_string : ?budget:int -> ?key_capacity:int -> string -> (t, string) result
(** Parse a spec ({!Lang.parse}) and compile it. [budget] (default
    1_000_000) bounds firings per probe; [key_capacity] bounds each
    probe's aggregation (see {!Agg.create}). *)

val wants : t -> string -> bool
(** Whether any probe targets [site] — lets hosts skip building
    contexts (and e.g. avoid opting into instruction stepping) when no
    probe would fire. [Kvmsim.Kvm] asks it before building any. *)

val fire : t -> Ctx.t -> int
(** Run every probe attached to [ctx.site]; returns how many matched
    (fired or were budget-dropped — callers use [> 0] to learn that the
    event was observed, e.g. to stamp a flight-ring annotation). *)

val set_metrics : t -> Telemetry.Metrics.t option -> unit
(** Attach a registry: drops increment [vtrace_drops_total] (labeled by
    kind: [budget] or [keys]) as they happen. *)

val fires : t -> int
(** Total successful firings across probes. *)

val values : t -> probe:int -> (string list * float) list
(** Probe [probe]'s aggregate per key, insertion order — for tests. *)

val coverage : t -> (string * float) list
(** Per-site firing map flattened for coverage hashing: a
    ["site|probe#"] fire-count feature per probe plus a
    ["site|probe#|key,..."] feature per aggregation cell, in spec then
    key-insertion order. Deterministic at a fixed seed — the fuzzer's
    vtrace coverage plane. *)

val render : t -> string
(** All probes as {!Stats.Report} tables (plus per-key histograms for
    [hist] probes), deterministic byte-for-byte at a fixed seed. *)

val export : t -> Telemetry.Metrics.t -> unit
(** Publish aggregates as labeled gauges
    [vtrace_<site>_<agg>{probe="<i>", <by-field>="<key>"}] and the drop
    total as [vtrace_drops_total]. Idempotent: re-export overwrites. *)
