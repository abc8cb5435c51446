(** Virtual cycle clock.

    Every simulated operation charges cycles against a clock; experiments
    read it like [rdtsc]. The clock frequency defaults to the paper's
    {i tinker} testbed (AMD EPYC 7281 @ 2.69 GHz) so reported microsecond
    figures are directly comparable. *)

type t

val default_freq_ghz : float
(** 2.69: the testbed's clock, which every runtime's clocks run at. *)

val create : ?freq_ghz:float -> unit -> t
(** Fresh clock at cycle 0. [freq_ghz] defaults to {!default_freq_ghz}. *)

val now : t -> int64
(** Current cycle count. *)

val advance : t -> int64 -> unit
(** [advance t c] moves time forward by [c] cycles. [c] must be >= 0. *)

val advance_int : t -> int -> unit
(** {!advance} by an [int] count, without boxing it. [c] must be >= 0. *)

val freq_ghz : t -> float

val to_ns : t -> int64 -> float
(** Convert a cycle count to nanoseconds at this clock's frequency. *)

val to_us : t -> int64 -> float
val to_ms : t -> int64 -> float

val of_us : t -> float -> int64
(** Cycles corresponding to the given duration in microseconds. *)

val elapsed_since : t -> int64 -> int64
(** [elapsed_since t start] is [now t - start]. *)
