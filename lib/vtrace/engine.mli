(** The probe engine: compiled probes, firing, and output.

    Sites call {!fire} with a {!Ctx.t}; the engine runs every attached
    probe for that site — predicate, then keyed aggregation — charging
    zero simulated cycles. Detached sites pay a single [None] check
    (the [option] test in the host layer); attached-but-unwanted sites
    pay one hashtable miss. A per-probe firing budget bounds work and
    memory: once a probe has fired [budget] times, further matches are
    dropped and counted (exported as [vtrace_drops_total]).

    Determinism contract: probes never mutate guest-visible state, never
    read wall-clock time or unseeded randomness, and never advance a
    virtual clock — so attach-vs-detach and record-vs-replay produce
    identical guest results and identical aggregate tables at a fixed
    seed. *)

type t

val create : ?budget:int -> ?key_capacity:int -> ?sample_cap:int -> Lang.spec -> t
(** Compile a parsed spec. [budget] (default 1_000_000) bounds firings
    per probe; [key_capacity]/[sample_cap] bound each probe's
    aggregation (see {!Agg.create}). *)

val of_string :
  ?budget:int -> ?key_capacity:int -> ?sample_cap:int -> string ->
  (t, string) result
(** [create] composed with {!Lang.parse}. *)

val spec : t -> Lang.spec

val wants : t -> string -> bool
(** Whether any probe targets [site] — lets hosts skip building
    contexts (and e.g. avoid opting into instruction stepping) when no
    probe would fire. *)

val fire : t -> Ctx.t -> int
(** Run every probe attached to [ctx.site]; returns how many matched
    (fired or were budget-dropped — callers use [> 0] to learn that the
    event was observed, e.g. to stamp a flight-ring annotation). *)

val set_fn : t -> string -> unit
(** Name the function/image currently executing; contexts fired with an
    empty [fn] field inherit it (the KVM layer below Wasp does not know
    image names). *)

val set_metrics : t -> Telemetry.Metrics.t option -> unit
(** Attach a registry: drops increment [vtrace_drops_total] (labeled by
    kind: [budget] or [keys]) as they happen. *)

val fires : t -> int
(** Total successful firings across probes. *)

val drops : t -> int
(** Total drops (budget + key-capacity). *)

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

val folded : t -> string
(** Folded-stack lines: [site;key;... value] — flamegraph-ready. *)

val export : t -> Telemetry.Metrics.t -> unit
(** Publish aggregates as labeled gauges
    [vtrace_<site>_<agg>{probe="<i>", <by-field>="<key>"}] and the drop
    total as [vtrace_drops_total]. Idempotent: re-export overwrites. *)
