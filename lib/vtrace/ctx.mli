(** The per-site probe context: the record of facts a probe site hands to
    the engine when it fires. Every field is populated from simulator
    state that is itself deterministic (virtual clocks, seeded RNGs),
    so predicate evaluation and aggregation are replay-stable. *)

type t = {
  site : string;  (** probe-site name, e.g. ["exit"] *)
  core : int;  (** simulated core the event happened on *)
  trace : int64 option;  (** active causal trace id, if tracing *)
  fn : string;  (** function/image name ("" when unknown at the site) *)
  pc : int;  (** guest program counter, 0 when not meaningful *)
  reason : string;  (** site-specific discriminator, e.g. exit reason *)
  cycles : int64;  (** site-specific cycle measure (duration/cost) *)
  fuel : int;  (** fuel limit in force, 0 when none *)
  nr : int64;  (** site-specific numeric operand (hc nr, page, port…) *)
}

type value = Int of int64 | Str of string

val fields : string list
(** Canonical field names, in documentation order. *)

val canonical : string -> string option
(** Resolve a user-written field name (including aliases [hc_nr], [arg],
    [page], [port] → [nr]; [trace] → [trace_id]) to its canonical name;
    [None] if unknown. *)

val is_numeric : string -> bool
(** Whether a canonical field carries an [Int] (vs [Str]) value. *)

val get : t -> string -> value
(** Field access by canonical name. Raises [Invalid_argument] on an
    unknown field (the language layer validates names at parse time). *)

val render : t -> string -> string
(** Human/key rendering of a field: strings verbatim, [trace_id] as 16
    hex digits (["-"] when absent), [pc] as [0x%x], other ints in
    decimal. Used for aggregation keys, so it is deterministic. *)
