(** VM-exit flight recorder.

    A fixed-size ring holding the most recent VM exits — reason, guest
    PC, virtual-cycle stamp, core id, plus a free-form hypervisor
    annotation (hypercall number/args/return). Recording charges no
    simulated cycles, so the recorder stays attached permanently; when a
    guest faults or violates policy the runtime renders the ring as an
    annotated "black box" {!dump}. *)

type kind =
  | Halt
  | Io_out of { port : int; value : int64 }
  | Io_in of { port : int }
  | Fault of string
  | Fuel
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
  mutable note : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of the last [capacity] (default 128) exits. *)

val capacity : t -> int

val total : t -> int
(** Exits ever recorded (including overwritten ones). *)

val count : t -> int
(** Exits currently retained ([min total capacity]). *)

val record : t -> ?trace:int64 -> at:int64 -> core:int -> pc:int -> kind -> unit

val annotate_last : t -> string -> unit
(** Attach hypervisor context (e.g. "write(1, 0x80, 5) -> 5") to the most
    recently recorded exit. *)

val append_note : t -> string -> unit
(** Like {!annotate_last} but appends (["; "]-separated) instead of
    replacing, so several observers (hypercall dispatch, vtrace probes)
    can stamp the same exit without clobbering each other. *)

val entries : t -> entry list
(** Retained entries, oldest first. *)

val pp_entry : Format.formatter -> entry -> unit

val dump : t -> reason:string -> string
(** The annotated black-box report: a header with [reason] and the
    retained entries, oldest first. *)
