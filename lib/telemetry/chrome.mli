(** Chrome [trace_event] JSON exporter.

    Serializes a hub's spans as "X" (complete) events and its instants as
    "i" events, timestamps in microseconds of virtual time, loadable in
    [about://tracing] or {{:https://ui.perfetto.dev}Perfetto}. Every span
    also carries its raw cycle count under [args.cycles]. Output is
    deterministic: two runs with the same seed produce byte-identical
    JSON. *)

val to_json : ?process:string -> Hub.t -> string
(** [process] (default ["wasp"]) names the trace's process row. *)

val add_fixed3 : Buffer.t -> float -> unit
(** [add_fixed3 buf x] appends exactly [Printf.sprintf "%.3f" x], the
    form of every [ts] and [dur], calling Printf only when [x] is within
    a few ulps of a rounding tie or is negative, huge or not finite. *)
