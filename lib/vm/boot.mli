(** Minimal boot sequencer.

    Mirrors the ~160-line assembly bring-up the paper measures in Table 1:
    from reset, configure a GDT, flip into protected mode, optionally set
    up identity paging and enter long mode, then fetch the first guest
    instruction. Each component charges cycles against the virtual clock
    and is reported by name so the Table 1 bench can print the breakdown. *)

type component = { name : string; cycles : int }
(** One boot step. The names are stable: ["load 32-bit gdt"],
    ["protected transition"], ["jump to 32-bit"], ["paging ident. map"],
    ["long transition"], ["jump to 64-bit"] and ["first instruction"]. *)

val perform :
  mem:Memory.t -> clock:Cycles.Clock.t -> rng:Cycles.Rng.t -> target:Modes.t -> component list
(** Bring the machine from reset to [target] mode. Writes the GDT and (for
    long mode) the page tables into guest memory, charges each component's
    cycles (with measurement jitter), and returns the per-component
    breakdown actually charged. Real mode performs only the first
    instruction fetch — the basis of Figure 3's real-mode savings. *)

val min_mem_size : Modes.t -> int
(** The smallest memory {!perform} can boot into the mode (0x518 for
    protected, 16 KB for long); it raises {!Memory.Fault} below it. *)
