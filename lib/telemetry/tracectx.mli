(** Deterministic trace contexts.

    A tracer hands out W3C-style 64-bit ids from its own seeded
    {!Cycles.Rng} stream: attach one to a {!Span.sink} (via
    {!Span.set_tracer} or {!Hub.enable_tracing}) and every span opened
    while it is active is stamped with a causal identity, a (trace id,
    span id, parent id) triple. A root-level span starts a fresh trace;
    nested spans inherit the enclosing trace id and link to their
    parent's span id.

    Determinism is the point: ids are a pure function of (tracer seed,
    enter order), and the tracer never touches the simulation's RNG, so
    two same-seed runs mint byte-identical ids and a replayed run traces
    identically to the recorded one. *)

type t

val create : seed:int -> t
(** A fresh tracer with its own id stream. Same seed, same ids. *)

val fresh_id : t -> int64
(** The next id of the stream. Never zero, so a span sink can store 0
    for "no id". A trace root takes two (its trace id, then its span
    id), any other span one (its span id). *)

val id_to_string : int64 -> string
(** 16 lowercase hex digits, zero-padded — the form used in span args,
    Prometheus exemplars and flight-ring entries. *)

val id_of_string : string -> int64 option
(** Inverse of {!id_to_string}: exactly 16 hex digits, of either case.
    [None] on anything else, including a sign, a [0x] prefix or a [_]
    separator. *)
