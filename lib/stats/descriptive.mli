(** Descriptive statistics used by the evaluation harness.

    The paper reports means with standard deviations, removes host-scheduler
    outliers with Tukey's method (values outside
    [q25 - 1.5 IQR, q75 + 1.5 IQR]), and uses the harmonic mean for
    throughput aggregation; all of those live here. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on empty input. *)

val minimum : float array -> float
val maximum : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100], linear interpolation between
    order statistics. Does not require sorted input. *)

val tukey_filter : float array -> float array
(** Remove outliers outside [q25 - 1.5 IQR, q75 + 1.5 IQR], as in the
    paper's Section 4.2 footnote. *)

val harmonic_mean : float array -> float
(** Harmonic mean; used for throughput (Figure 13). All values must be
    positive. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator); 0 for singletons *)
  min : float;
  max : float;
  p50 : float;  (** the median *)
  p99 : float;
}

val summarize : ?tukey:bool -> float array -> summary
(** Summary statistics, optionally after Tukey filtering (default true). *)
