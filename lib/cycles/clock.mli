(** Virtual cycle clock.

    Every simulated operation charges cycles against a clock; experiments
    read it like [rdtsc]. Every clock runs at the paper's {i tinker}
    testbed frequency (AMD EPYC 7281 @ 2.69 GHz) so reported microsecond
    figures are directly comparable. *)

type t

val default_freq_ghz : float
(** 2.69: the testbed's clock, which every runtime's clocks run at. *)

val create : unit -> t
(** Fresh clock at cycle 0. *)

val now : t -> int64
(** Current cycle count. *)

val advance : t -> int64 -> unit
(** [advance t c] moves time forward by [c] cycles. [c] must be >= 0. *)

val advance_int : t -> int -> unit
(** {!advance} by an [int] count, without boxing it. [c] must be >= 0. *)

val freq_ghz : t -> float
(** {!default_freq_ghz}. *)

val to_us : t -> int64 -> float
(** Convert a cycle count to microseconds at the clock's frequency. *)

val elapsed_since : t -> int64 -> int64
(** [elapsed_since t start] is [now t - start]. *)
