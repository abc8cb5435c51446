(** Cycle-attributed phase spans.

    A span names a phase of work ([provision], [boot], [execute], ...)
    and carries the virtual-clock cycle count at which it started and how
    many cycles elapsed before it closed. Spans nest: the runtime opens a
    root [invocation] span and tiles its interior with phase spans so
    that the durations of the depth-1 children sum exactly to the
    invocation's end-to-end latency (no charged work happens outside a
    phase). Because stamps come from {!Cycles.Clock}, traces are
    deterministic for a fixed seed. *)

type span = {
  name : string;                   (** phase name, e.g. ["boot"] *)
  start_cycles : int64;            (** clock value when the span opened *)
  duration : int64;                (** cycles between open and close *)
  depth : int;                     (** nesting depth; 0 = root *)
  seq : int;                       (** creation order, unique per sink *)
  core : int;                      (** simulated core the span was opened on *)
  args : (string * string) list;   (** free-form attributes *)
}

type item =
  | Complete of span
  | Instant of {
      i_name : string;
      i_at : int64;
      i_depth : int;
      i_seq : int;
      i_core : int;
      i_args : (string * string) list;
    }  (** a point-in-time event, e.g. a pool hit or an SLO alert *)

type sink
(** Collects finished spans and instants, stamping them from one clock. *)

val create : ?capacity:int -> clock:Cycles.Clock.t -> unit -> sink
(** A fresh sink. At most [capacity] (default 65536) items are retained;
    further items are counted in {!dropped} but not stored (nesting
    bookkeeping still happens, so depths stay correct). *)

val clock : sink -> Cycles.Clock.t

val set_clock : sink -> Cycles.Clock.t -> unit
(** Retarget the stamping clock (multi-core runs switch the sink to the
    active core's clock). Only switch between spans: a span that is open
    across a switch gets its duration measured on the leave-time clock. *)

val core : sink -> int

val set_core : sink -> int -> unit
(** Stamp subsequently opened spans/instants with this core id (the
    Chrome exporter lays each core out as its own thread track). The
    runtime's core switcher keeps this in sync with {!set_clock}. *)

val set_tracer : sink -> Tracectx.t option -> unit
(** Attach (or detach) a {!Tracectx.t}. While attached, every {!enter}
    mints span ids: a depth-0 span starts a fresh trace, nested spans
    inherit the enclosing trace and link to their parent. Retained spans
    carry [trace_id]/[span_id]/[parent_id] args; instants carry the
    active [trace_id]. *)

val tracer : sink -> Tracectx.t option

val current_ids : sink -> Tracectx.ids option
(** Ids of the innermost open span, when tracing is on. *)

val current_trace : sink -> int64 option
(** Trace id of the innermost open span, when tracing is on — what
    exemplars and flight-ring entries are stamped with. *)

val enter : sink -> ?args:(string * string) list -> string -> unit
(** Open a span stamped at [Clock.now]. *)

val leave : sink -> ?args:(string * string) list -> unit -> unit
(** Close the innermost open span (no-op if none is open); [args] are
    appended to those given at {!enter}. *)

val with_span : sink -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span s name f] brackets [f] with {!enter}/{!leave}, closing the
    span even if [f] raises. *)

val instant : sink -> ?args:(string * string) list -> string -> unit
(** Record a point event at [Clock.now] and the current depth. *)

val items : sink -> item list
(** Retained items in creation ([seq]) order. *)

val spans : sink -> span list
(** Just the completed spans, in creation order. *)

val depth : sink -> int
(** Number of currently open spans. *)

val count : sink -> int
val dropped : sink -> int
val clear : sink -> unit
(** Drop retained items (open spans stay open). *)
