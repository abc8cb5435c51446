(** Bounded keyed aggregation cells for one probe.

    Keys are rendered field tuples; cells are kept in first-insertion
    order, which is deterministic because every firing site is driven by
    the simulator's virtual clocks and seeded RNGs. Two bounds keep
    memory finite: a key-capacity bound (new keys beyond it are dropped
    and counted) and a per-key sample bound for the sample-keeping
    aggregations ([hist] and [p]). *)

type t

type cell = {
  mutable n : int;
  mutable sum : int64;
  mutable mn : int64;
  mutable mx : int64;
  mutable samples : float list;  (** newest first; [hist]/[p] only *)
  mutable sample_drops : int;
}

val create : ?key_capacity:int -> Lang.aggfun -> t
(** [key_capacity] defaults to 512 keys. Each key keeps at most 8192
    samples. *)

val observe : t -> key:string list -> int64 -> bool
(** Record one observation under [key]. [false] when the key table is
    full and [key] is new (the observation was dropped). *)

val value : t -> cell -> float
(** The cell's aggregate value under this aggregation ([hist] reports
    the observation count; quantiles interpolate like
    {!Stats.Descriptive.percentile}). *)

val cells : t -> (string list * cell) list
(** All cells, first-insertion order. *)
