(** VM-exit flight recorder.

    A fixed-size ring holding the most recent VM exits — reason, guest
    PC, virtual-cycle stamp, core id, plus a free-form hypervisor
    annotation (hypercall number/args/return). Recording charges no
    simulated cycles, so the recorder stays attached permanently; when a
    guest faults or violates policy the runtime renders the ring as an
    annotated "black box" {!dump}. *)

type kind =
  | Exit of Vm.Cpu.exit_reason
      (** A [KVM_RUN] return, as the vCPU reported it; rendered only
          when the ring is read. *)
  | Ept of { page : int }
      (** Simulated EPT write-protection violation: a CoW break of a
          shared guest page. Unlike the other kinds this is not a
          [KVM_RUN] return — it is handled "in-kernel" — but it is an
          exit-class event worth a black-box entry. *)
  | Injected of string
      (** A fault-plan injection fired at the named site (see
          {!Cycles.Fault_plan} and [docs/robustness.md]); chaos runs
          leave their injections in the black box so a post-mortem can
          tell injected turbulence from organic failure. *)

type note
(** A hypervisor annotation, formatted only when the ring is read. *)

type entry = private {
  seq : int;
  at : int64;
  core : int;
  pc : int;
  kind : kind;
  trace : int64 option;
      (** trace id of the request that took the exit, stamped when the
          telemetry hub has tracing enabled — the hook that makes a slow
          request's exits greppable in the black box *)
  mutable notes : note list;
      (** newest first; {!pp_entry} prints them oldest first, joined by
          ["; "] *)
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of the last [capacity] (default 128) exits. *)

val record : t -> ?trace:int64 -> at:int64 -> core:int -> pc:int -> kind -> unit

val append_note : t -> string -> unit
(** Attach hypervisor context (e.g. "write(1, 0x80, 5) -> 5") to the
    most recently recorded exit, after any note already there
    (["; "]-separated), so several observers (hypercall dispatch, vtrace
    probes) can stamp the same exit without clobbering each other. *)

val append_deferred : t -> (unit -> string) -> unit
(** {!append_note} of the text [f ()], with [f] called only when the
    ring is read ({!pp_entry}, {!dump}): most exits are overwritten unread,
    so a note that formats values costs nothing until then. [f] must
    read only values that do not change after the call. *)

val entries : t -> entry list
(** Retained entries, oldest first. *)

val pp_entry : Format.formatter -> entry -> unit
(** One line: sequence number, cycle, core, pc, the exit, the trace id
    when stamped and, after ["  ; "], the notes. *)

val dump : t -> reason:string -> string
(** The annotated black-box report: a header with [reason] and the
    number of exits ever recorded and retained, then the retained
    entries, oldest first. *)
