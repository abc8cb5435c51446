(** Deterministic trace contexts.

    A tracer hands out W3C-style (trace id, span id, parent id) triples
    from its own seeded {!Cycles.Rng} stream: attach one to a
    {!Span.sink} (via {!Span.set_tracer} or {!Hub.enable_tracing}) and
    every span opened while it is active is stamped with a causal
    identity. A root-level span starts a fresh trace; nested spans
    inherit the enclosing trace id and link to their parent's span id.

    Determinism is the point: ids are a pure function of (tracer seed,
    enter order), and the tracer never touches the simulation's RNG, so
    two same-seed runs mint byte-identical ids and a replayed run traces
    identically to the recorded one. *)

type ids = {
  trace_id : int64;   (** shared by every span of one request *)
  span_id : int64;    (** unique per span within the sink *)
  parent_id : int64 option;  (** [None] for a trace root *)
}

type t

val create : seed:int -> t
(** A fresh tracer with its own id stream. Same seed, same ids. *)

val enter : t -> parent:ids option -> ids
(** Mint ids for a span opening under [parent]. [None] starts a new
    trace (fresh trace id, no parent); [Some p] stays in [p]'s trace
    with [parent_id = Some p.span_id]. Ids are never zero. *)

val id_to_string : int64 -> string
(** 16 lowercase hex digits, zero-padded — the form used in span args,
    Prometheus exemplars and flight-ring entries. *)

val id_of_string : string -> int64 option
(** Inverse of {!id_to_string}: exactly 16 hex digits, of either case.
    [None] on anything else, including a sign, a [0x] prefix or a [_]
    separator. *)

val args_of_ids : ids -> (string * string) list
(** [("trace_id", ..); ("span_id", ..)] plus [("parent_id", ..)] when
    the span has a parent — the args stamped onto retained spans. *)
