(** A reference stepper for the vx ISA: fetch, decode and execute one
    instruction at a time, charging each its cost. The fuzzer's second
    engine arm and the baseline {!Vm.Translate} is tested against; it
    shares with it only the decoder, {!Vm.Memory} and {!Vm.Cpu}'s
    register file, pc and flags. *)

type hook = pc:int -> instr:Instr.t -> cost:int -> unit
(** Called once per retired instruction, after its cost is charged to
    the clock and before it executes, with {!Vm.Cpu.pc} at the
    instruction. *)

val run : ?fuel:int -> ?hook:hook -> Vm.Cpu.t -> Vm.Cpu.exit_reason
(** Execute until a VM exit. [fuel] (default 200M instructions) bounds
    runaway guests. Resumable after I/O exits. After a [Fault] exit,
    {!Vm.Cpu.pc} reports the faulting instruction's address. *)
