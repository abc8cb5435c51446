(** Metrics registry: named counters, gauges and log-bucketed cycle
    histograms.

    Registration is idempotent — asking for a counter that already exists
    returns the existing one — so instrumentation sites can look metrics
    up by name without threading handles around. Histograms bucket values
    by powers of two (bucket 0 holds zeros, bucket [i >= 1] holds
    [[2^(i-1), 2^i)]) and keep the count, sum, min and max; the
    exporters render the buckets. *)

type counter = private {
  c_name : string;
  c_help : string;
  c_labels : (string * string) list;  (** Prometheus-style label set; [[]] = plain *)
  mutable c_value : int;
  c_bad : int ref;  (** the owning registry's shared bad-sample tally *)
}

type gauge = private {
  g_name : string;
  g_help : string;
  g_labels : (string * string) list;
  mutable g_value : float;
  g_bad : int ref;
}

type exemplar = { e_trace : string; e_value : int64 }
(** Last traced observation to land in a bucket: the trace id (16 hex
    digits) and the observed value — what the Prometheus exporter renders
    as an OpenMetrics [# {trace_id="..."} value] suffix. *)

type histogram = private {
  h_name : string;
  h_help : string;
  h_labels : (string * string) list;
  h_buckets : int array;   (** 63 log2 buckets *)
  h_exemplars : exemplar option array;  (** per-bucket, newest wins *)
  mutable h_count : int;
  mutable h_sum : int64;
  mutable h_min : int64;
  mutable h_max : int64;
  h_bad : int ref;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t

val create : unit -> t

val series_key : string -> (string * string) list -> string
(** The find-or-register identity of a (name, labels) pair: the bare
    name when [labels] is empty, else [name{k=v,...}]. *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Find-or-register. Each distinct (name, labels) pair is its own
    series: [counter t ~labels:["fn", "main"] "cycles"] and
    [counter t ~labels:["fn", "fib"] "cycles"] are independent counters
    under one exported metric family. {!find} by bare name only sees the
    unlabeled series. @raise Invalid_argument if the identity is already
    a different kind of metric. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram : t -> ?help:string -> ?labels:(string * string) list -> string -> histogram
(** Find-or-register, with the same per-series (name, labels) identity
    as {!counter}: each labeled series keeps its own buckets, exported
    under one family with the series labels merged into the [le]
    label set. *)

val incr : ?by:int -> counter -> unit
(** Counters are monotone: a negative [by] is rejected (the value is
    unchanged) and counted as a bad sample. *)

val set : gauge -> float -> unit
(** A NaN value is rejected — the gauge keeps its last good value — and
    counted as a bad sample. *)

val observe : ?exemplar:string -> histogram -> int64 -> unit
(** Record one sample. A negative value clamps to 0 and is counted as a
    bad sample. [exemplar] is the active trace id; when given, it
    replaces the landing bucket's exemplar so every bucket remembers its
    most recent traced sample.

    The registry tallies every rejected sample (negative counter
    increment, NaN gauge value, negative observation). Once the tally is
    nonzero it exports a [telemetry_bad_samples_total] counter carrying
    it, materialized on the first {!find}/{!to_list} after a rejection so
    a clean run's exposition is unchanged. *)

val bucket_index : int64 -> int
(** The bucket a value lands in. *)

val bucket_bounds : int -> int64 * int64
(** [(lo, hi)] of bucket [i]: values [v] with [lo <= v < hi]. *)

val nonempty_buckets : histogram -> (int64 * int64 * int) list
(** [(lo, hi, count)] for each occupied bucket, ascending. *)

val cumulative_buckets : histogram -> (int64 * int) list
(** [(upper_bound, cumulative_count)] per occupied bucket, ascending —
    the Prometheus [le] series. *)

val bucket_exemplars : histogram -> (int64 * exemplar) list
(** [(upper_bound, exemplar)] for each occupied bucket holding one,
    ascending; upper bounds match {!cumulative_buckets}. *)

val find : t -> string -> metric option

val to_list : t -> metric list
(** All metrics in stable first-registration order (re-registration
    never reorders), so exposition is deterministic across runs. *)
