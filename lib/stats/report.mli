(** ASCII report rendering for benchmark output.

    The bench harness regenerates every paper table/figure as text; this
    module renders aligned tables and simple horizontal bar charts so the
    "shape" of each figure is visible in a terminal. *)

val table : ?title:string -> header:string list -> string list list -> string
(** [table ~header rows] renders an aligned table: the first column
    left-aligned, the rest right-aligned. Row widths must match the
    header. *)

val bar_chart : ?title:string -> ?log:bool -> (string * float) list -> string
(** [bar_chart entries] renders labeled horizontal bars scaled to the
    maximum value, the longest 50 characters. [log] plots log10 of the
    values (all must be > 0), mirroring the paper's log-scale axes. *)

val percentile_table :
  ?title:string ->
  ?unit_label:string ->
  ?slo:(string * float) list ->
  (string * float array) list ->
  string
(** [percentile_table rows] renders one row per labeled sample set with
    n, p50, p90, p99, p99.9 and max columns (linear-interpolated
    percentiles via {!Descriptive.percentile}). [unit_label] annotates
    the value columns, e.g. ["us"]. Empty sample sets render as dashes.
    [slo] maps row labels to p99 targets (same unit as the samples):
    when given, two extra columns show each row's target and a
    met/MISSED verdict (dashes for rows without a target). *)

val histogram : ?title:string -> (string * int) list -> string
(** [histogram entries] renders labeled integer counts as horizontal bars
    scaled to the largest count, the longest 50 characters — used for
    bucketed latency distributions. *)

val section : string -> string
(** A visually distinct section banner. *)
