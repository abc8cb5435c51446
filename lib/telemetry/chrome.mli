(** Chrome [trace_event] JSON exporter.

    Serializes a hub's spans as "X" (complete) events and its instants as
    "i" events, timestamps in microseconds of virtual time, loadable in
    [about://tracing] or {{:https://ui.perfetto.dev}Perfetto}. Every span
    also carries its raw cycle count under [args.cycles]. Output is
    deterministic: two runs with the same seed produce byte-identical
    JSON. *)

val to_json : Hub.t -> string
(** The trace's process row is named ["wasp"].

    The output is written once at its exact length: one writer runs over
    the sink's columns ({!Span.columns}) twice, first counting bytes,
    then filling a buffer of that length, which is returned without a
    copy. No item list is built and nothing is sorted: slots are already
    in [seq] order, and ids are written from their [int64]s. The only
    allocation that grows with the trace is that one block (~200 bytes
    per item), so an export adds no oversized or copied transient to
    the major heap. It costs 0.25–0.4 µs per item on a 2-vCPU VM: a
    median 2.4 ms for a 10K-item traced hub (3.5 ms for the exporter
    over the list sink it replaced), and 3.5 ms for a 10K-item
    tiny_chaos export (7.6 ms before).

    Every [ts] and [dur] is exactly [Printf.sprintf "%.3f"] of the
    microseconds {!Cycles.Clock.to_us} gives, written by the exporter's
    own number writer, which calls Printf only when the value is within
    a few ulps of a rounding tie or is negative, huge or not finite. *)
