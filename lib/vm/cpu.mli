(** The vx virtual CPU: machine state.

    A CPU is registers, flags, a PC, a retired-instruction count and a
    virtual clock over one {!Memory.t}. It holds no execution loop and no
    guest memory access:
    {!Translate} executes guests against it, charging cycle costs to the
    clock. A CPU never touches anything outside its memory: every fault
    and every [out] instruction becomes a VM exit that the hypervisor
    layer (kvmsim/Wasp) interprets. Register results are truncated to the
    active processor-mode width. *)

type fault =
  | Memory_oob of { addr : int; size : int }  (** access outside guest RAM *)
  | Page_fault of { addr : int }              (** beyond the mapped region *)
  | Invalid_opcode of { addr : int; msg : string }
  | Division_by_zero of { addr : int }

type exit_reason =
  | Halt
  | Io_out of { port : int; value : int64 }
      (** [out] executed: the hypercall doorbell. The CPU is resumable. *)
  | Io_in of { port : int; reg : Instr.reg }
      (** [in] executed: the host should deposit a value with {!set_reg}
          and resume. *)
  | Fault of fault
  | Out_of_fuel  (** instruction budget exhausted (runaway guest). *)

val pp_exit : Format.formatter -> exit_reason -> unit

type t

val create : mem:Memory.t -> mode:Modes.t -> clock:Cycles.Clock.t -> t
(** Registers and flags zeroed; PC at 0. The caller (boot/Wasp) sets PC
    and SP before running. *)

val mem : t -> Memory.t
val mode : t -> Modes.t

val get_reg : t -> Instr.reg -> int64
val set_reg : t -> Instr.reg -> int64 -> unit
(** Values are truncated to the mode width on write. *)

val pc : t -> int
val set_pc : t -> int -> unit
val set_sp : t -> int -> unit

val instructions_retired : t -> int64

val set_step_hook : t -> (pc:int -> instr:Instr.t -> cost:int -> unit) -> unit
(** Install a per-instruction observer, called once per retired
    instruction after its cost is charged to the clock and before it
    executes (the guest profiler's attachment point). At most one hook is
    active; installing replaces the previous one. {!Translate.run} runs
    its hooked block flavour while a hook is installed. *)

val clear_step_hook : t -> unit

val reset : t -> mode:Modes.t -> unit
(** Clear registers/flags/PC and switch mode (shell reuse). Guest memory
    is cleared separately by the pool. *)

(** {1 Engine support}

    The surface {!module:Translate} compiles against. The register, PC
    and flag accessors also serve reference steppers outside [vm]. *)

exception Vm_fault of fault
(** Raised by {!fetch}, and by an execution engine's own primitives; the
    engine converts it to [Fault _]. *)

val fetch : t -> int -> Instr.t * int
(** Decode the instruction (and its size) at an address, faulting
    ({!Vm_fault} / {!Memory.Fault}) exactly as the guest's fetch would. *)

val limit_fault : Modes.t -> int -> int -> fault
(** [limit_fault mode addr size]: the fault an access of [size] bytes at
    [addr] past [mode]'s {!Modes.address_limit} takes — a page fault in
    long mode, a bounds fault below it. *)

val clock : t -> Cycles.Clock.t

type regfile = Memory.words
(** Unboxed 64-bit words. The concrete type lets a caller's accesses
    compile to plain loads and stores, with no [int64] boxed between. *)

val regs : t -> regfile
(** The live register file, indexed by {!Instr.reg}. Values are
    invariantly mode-masked; writers must store masked values (or use
    {!set_reg}). *)

type flags = { mutable signed_cmp : int; mutable unsigned_cmp : int }
(** The comparison flags: the sign of the last [cmp], signed and
    unsigned ([cmp] writes them, conditional branches read them). *)

val flags : t -> flags
(** The live flags. *)

val current_step_hook : t -> (pc:int -> instr:Instr.t -> cost:int -> unit) option

val add_retired : t -> int -> unit
(** Credit [n] retired instructions (batched by translated blocks). *)
