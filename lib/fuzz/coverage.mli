(** Coverage signal: execution features hashed into a fixed bitmap.

    All features are read from existing observability surfaces — the
    always-on KVM exit-reason tally, exit-kind edges from the flight
    ring, the profiler's per-opcode table and vtrace per-site firing
    maps — bucketized (log2 of the count) and FNV-hashed into a 64K-bit
    map. An input is "interesting" when it sets a bit no earlier input
    set. *)

type t

val create : unit -> t

val bit_count : t -> int
(** Bits currently set — the corpus-wide coverage count. *)

val observe : t -> string list -> int
(** Mark each feature's bit; returns how many bits were newly set. *)

val feature : string -> int -> string
(** [feature name count]: the bucketized feature string
    (["name#log2bucket"]). *)

val log2_bucket : int -> int

val flight_features : Profiler.Flight.t -> string list
(** Exit-kind edge pairs from the flight ring, deduplicated (presence,
    not counts: the ring is bounded). *)

val kvm_features : Kvmsim.Kvm.system -> string list
(** Bucketized [kvm_exits_total{reason}] counts. *)

val opcode_features : Profiler.Profile.t -> string list
(** Bucketized per-opcode execution counts. *)

val vtrace_features : Vtrace.Engine.t -> string list
(** Bucketized per-site firing map from {!Vtrace.Engine.coverage}. *)

val outcome_features :
  outcome:string -> ret:int64 -> hypercalls:int -> denied:int -> string list
