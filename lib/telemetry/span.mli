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
(** Collects finished spans and instants, stamping them from one clock.

    The sink is a column store: each item takes the next slot when it
    opens (a span at {!enter}, an instant at once), so slots are in
    creation ([seq]) order and reading them needs no sort. The columns
    (name, stamp, duration, depth, seq, core, kind, the caller's args,
    and the trace, span and parent ids as [int64]s with 0 for none)
    grow by doubling up to [capacity] and are reused after {!clear}.
    Recording a span allocates nothing that outlives it but the caller's
    args list; id strings are only made by {!items}. *)

val create : ?capacity:int -> clock:Cycles.Clock.t -> unit -> sink
(** A fresh sink holding at most [capacity] (default 65536) items: the
    first [capacity] items {e opened} since the last {!clear}. An item
    opened while every slot is taken is not stored; it is counted in
    {!dropped} when it finishes. A span that keeps its slot keeps it
    even if items opened after it fill the sink first. Nesting
    bookkeeping and trace ids go on for dropped spans, so depths and
    parent links stay correct. *)

val set_clock : sink -> Cycles.Clock.t -> unit
(** Retarget the stamping clock (multi-core runs switch the sink to the
    active core's clock). Only switch between spans: a span that is open
    across a switch gets its duration measured on the leave-time clock. *)

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
(** Retained items in creation ([seq]) order, built on each call. *)

val spans : sink -> span list
(** Just the completed spans, in creation order. *)

val depth : sink -> int
(** Number of currently open spans. *)

val count : sink -> int
(** Finished items retained. *)

val dropped : sink -> int
(** Finished items not retained for want of a slot. [count + dropped]
    is the number of items finished since the last {!clear}. *)

val clear : sink -> unit
(** Drop retained items and reset {!count} and {!dropped}. Spans still
    open stay open: those that hold a slot move to the front,
    outermost first, and are retained when they close; one dropped at
    its opening stays dropped. *)

(** {1 Columns}

    The store itself, for exporters that write straight from it (see
    {!Chrome.to_json}). Read it between sink operations only: the sink
    replaces a column's array when it grows. *)

type state =
  | Open  (** a span not yet closed *)
  | Closed  (** a finished span *)
  | Point  (** an instant *)

type ids = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type columns = private {
  mutable used : int;  (** slots in use: retained items and open spans *)
  mutable states : state array;
  mutable names : string array;
  mutable starts : int array;  (** cycles at opening; an instant's stamp *)
  mutable durations : int array;  (** cycles, for a [Closed] span *)
  mutable depths : int array;
  mutable seqs : int array;
  mutable cores : int array;
  mutable caller_args : (string * string) list array;
      (** the caller's args, those given at {!leave} after those given
          at {!enter}; the id args of {!items} are not in it *)
  mutable trace_ids : ids;  (** 0 when untraced *)
  mutable span_ids : ids;  (** 0 for an instant or when untraced *)
  mutable parent_ids : ids;  (** 0 for a trace root, an instant or when untraced *)
}

val columns : sink -> columns
(** Slots [0 .. used - 1] in [seq] order; {!items} is these slots with
    the [Open] ones skipped. *)
