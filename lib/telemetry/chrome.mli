(** Chrome [trace_event] JSON exporter.

    Serializes a hub's spans as "X" (complete) events and its instants as
    "i" events, timestamps in microseconds of virtual time, loadable in
    [about://tracing] or {{:https://ui.perfetto.dev}Perfetto}. Every span
    also carries its raw cycle count under [args.cycles]. Output is
    deterministic: two runs with the same seed produce byte-identical
    JSON. *)

val to_json : ?process:string -> Hub.t -> string
(** [process] (default ["wasp"]) names the trace's process row.

    The output is written once at its exact length: one writer runs over
    the items twice, first counting bytes, then filling a buffer of that
    length, which is returned without a copy. The only allocation that
    grows with the trace is that one block (~200 bytes per item), so an
    export adds no oversized or copied transient to the major heap. It
    costs about 1 µs per item. *)

val fixed3 : float -> string
(** [fixed3 x] is exactly [Printf.sprintf "%.3f" x], the form of every
    [ts] and [dur], written by the exporter's own number writer, which
    calls Printf only when [x] is within a few ulps of a rounding tie or
    is negative, huge or not finite. *)
