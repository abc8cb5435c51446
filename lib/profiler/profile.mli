(** Guest profiler: cycle attribution inside the virtine.

    Attached to a KVM system ([Kvmsim.Kvm.set_profiler], which
    [Wasp.Runtime.set_profiler] delegates to), the profiler hooks the
    vCPU's fetch/execute loop and attributes the
    execute phase's cycles to guest functions, opcodes, and folded call
    stacks. Two modes:

    - {!Exact}: per-instruction attribution. Guest cycles plus the
      [\[vmm\]] residue (VM exits, hypercall dispatch) equal the execute
      span's duration exactly — a conservation property tests assert.
    - [Sampled interval]: cycle-budgeted PC sampling; a sample fires each
      time the virtual clock crosses the next [interval]-cycle boundary.

    The profiler aggregates across every invocation it sees. *)

type mode = Exact | Sampled of int  (** sample every [n] cycles *)

type t

val vmm_name : string
(** Name of the pseudo-function charged with host-side (VM exit /
    hypercall dispatch) cycles: ["\[vmm\]"]. *)

val create : ?mode:mode -> unit -> t
(** Default mode is {!Exact}. @raise Invalid_argument on a non-positive
    sampling interval. *)

val guest_cycles : t -> int64
(** Exact mode: total cycles attributed to guest instructions. *)

val host_cycles : t -> int64
(** Execute-span cycles not spent in guest instructions (exit costs,
    dispatch, handler work). *)

val total_cycles : t -> int64
(** [guest_cycles + host_cycles] = the summed execute-span durations of
    all profiled invocations (exact mode). *)

(** {1 Runtime integration} *)

val begin_invocation : t -> symbols:(string * int) list -> clock:Cycles.Clock.t -> unit
(** Called by [Kvmsim.Kvm.execute] before the execute phase: installs
    the payload's symbol table and clears the shadow stack. *)

val on_step : t -> pc:int -> instr:Instr.t -> cost:int -> unit
(** The vCPU step hook target (see [Vm.Cpu.set_step_hook]). *)

val opcode_key : Instr.t -> string
(** Short mnemonic for an instruction ("mov", "add", …) — the key the
    per-opcode table buckets by; also used by vtrace ["instr"] probes as
    their [reason] field. *)

val end_invocation : t -> execute_cycles:int64 -> unit
(** Called after the execute phase with the span's duration; books the
    non-guest residue as [\[vmm\]] cycles. *)

(** {1 Reports} *)

type fn_row = {
  row_name : string;
  row_cycles : int64;  (** exact: attributed; sampled: [samples * interval] *)
  row_instrs : int;
  row_calls : int;
  row_samples : int;
}

type op_stat = private {
  op_name : string;
  mutable op_cycles : int64;
  mutable op_count : int;
}

val functions : t -> fn_row list
(** Per-function rows, heaviest first, including [\[vmm\]] in exact mode.
    In exact mode the rows' cycles sum to {!total_cycles}. *)

val opcodes : t -> op_stat list
(** Per-opcode cycle table, heaviest first. *)

val folded_lines : t -> string
(** Folded call stacks, one ["a;b;c weight"] line each — the flamegraph
    collapse format, ready for [flamegraph.pl]. Weights are cycles in
    exact mode, samples in sampled mode. *)

val render : t -> string
(** Human-readable per-function and per-opcode tables. *)

val export : t -> Telemetry.Hub.t -> unit
(** Export per-function and per-opcode cycle totals into the hub's
    metrics registry as labeled counters ([wasp_profile_fn_cycles{fn},
    wasp_profile_opcode_cycles{op}]). Call once, after the run. *)
