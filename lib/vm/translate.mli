(** The vx execution engine: a decode-once superblock translation cache.

    Basic blocks are decoded once into closure-chain {e superblocks}
    (direct-threaded, chained on fallthrough and static branch targets),
    keyed by [(pc, cpu_mode, flavour)] and invalidated through
    {!Memory.page_version} alone. Each translation widens its pages'
    code extents ({!Memory.note_code}), so a write that overlaps
    translated bytes — self-modifying code, a pool reset, a snapshot
    restore — drops every block on the page, while data stored beside
    code keeps them.

    Timing is exact per instruction: each charges its {!Instr.cost} and
    retires once, batched and committed at every host observation point,
    so cycle counts and retired totals are those of one-at-a-time
    execution. While a {!Cpu.set_step_hook} hook is installed, {!run}
    executes a {e hooked} flavour of each block that calls the hook once
    per instruction, before it executes, with the clock and retired count
    committed up to and including it.

    See [docs/translation.md] for the design. *)

type t

val create : Cpu.t -> t
(** A translation cache bound to one CPU (and its memory). Blocks
    persist across {!run} calls until invalidated. *)

val run : ?fuel:int -> t -> Cpu.exit_reason
(** Execute until a VM exit. [fuel] (default 200M instructions) bounds
    runaway guests. Resumable: calling [run] again after an I/O exit
    continues after the I/O instruction. After a [Fault] exit,
    {!Cpu.pc} reports the faulting instruction's address. *)

val flush_cache : t -> unit
(** Drop every translated block (vcpu reset). Purely a performance
    event — stale blocks are also caught by validation. *)

val set_block_hook : t -> (pc:int -> unit) option -> unit
(** Install (or clear) a block-entry observer: called once per
    superblock entered — dispatcher entries, chained static transfers
    and returns through a [ret]'s cache alike — with the block's start
    pc, in either block flavour. The
    hook must not mutate guest state or advance clocks (vtrace block
    probes rely on this). *)

(** {1 Introspection} *)

type stats = {
  mutable blocks_translated : int;  (** superblocks compiled (incl. retranslations) *)
  mutable invalidations : int;      (** stale blocks dropped or aborted mid-block *)
}

val stats : t -> stats
