(** The vx execution engine: a decode-once superblock translation cache.

    Basic blocks are decoded once into closure-chain {e superblocks}
    (direct-threaded, chained on fallthrough and static branch targets),
    keyed by [(pc, cpu_mode, flavour)]. One cache serves any number of
    CPUs and memories: {!run} binds the CPU it is given, and its memory
    and clock, for the duration of the run. Each translation widens its
    pages' code extents ({!Memory.note_code}), so a write that overlaps
    translated bytes — self-modifying code, a pool reset, a snapshot
    restore — moves the page's {!Memory.page_version}, while data stored
    beside code does not.

    Each key keeps up to {!ways} blocks, newest first, so two images
    loaded at one origin keep each one's blocks. A block is reused as is
    while the bound memory is the one it was last validated against
    ({!Memory.tag}) and its pages' versions have not moved. Failing that,
    the first of its key's blocks whose bytes still match the memory's
    ({!Memory.equal_bytes}) takes the memory's extents and versions and
    is reused, and only when none matches is the pc translated again,
    into the front way, the oldest dropping out of the last. A block is a
    function of its bytes and the mode, so reuse changes no simulated
    cycle, exit or hook call.

    Timing is exact per instruction: each charges its {!Instr.cost} and
    retires once, batched and committed at every host observation point,
    so cycle counts and retired totals are those of one-at-a-time
    execution. While a {!Cpu.set_step_hook} hook is installed, {!run}
    executes a {e hooked} flavour of each block that calls the hook once
    per instruction, before it executes, with the clock and retired count
    committed up to and including it.

    See [docs/translation.md] for the design. *)

type t

val create : unit -> t
(** An empty translation cache. Blocks persist across {!run} calls and
    across the CPUs it runs. *)

val ways : int
(** Blocks one [(pc, cpu_mode, flavour)] key keeps: 4. *)

val run : ?fuel:int -> t -> Cpu.t -> Cpu.exit_reason
(** [run tr cpu] executes [cpu] until a VM exit. [fuel] (default 200M
    instructions) bounds runaway guests. Resumable: calling [run] again
    after an I/O exit continues after the I/O instruction. After a
    [Fault] exit, {!Cpu.pc} reports the faulting instruction's address.
    The cache holds [cpu] only while it runs. *)

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
  mutable invalidations : int;
      (** lookups that found blocks under the key but none valid or
          matching the memory's bytes, so translated it again (a key's
          stale ways stay, unless the new block pushes the oldest out),
          plus blocks aborted mid-block *)
  mutable revalidations : int;      (** stale blocks reused after a byte compare *)
}

val stats : t -> stats

val retained_words : t -> int
(** Heap words reachable from the cache between runs, its blocks and
    bookkeeping included: no vCPU or guest memory is bound then. The
    block hook is left out. *)
