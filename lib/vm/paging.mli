(** Long-mode identity paging.

    Table 1's dominant boot component (~28K cycles) is building the
    three-level identity mapping of the first 1 GB using 2 MB large pages:
    one PML4 entry, one PDPT entry and 512 PD entries — "12KB of memory
    references" — plus CR3 installation and KVM's EPT construction. We
    build the actual tables in guest memory with real x86 PTE bit layouts
    so the cost falls out of counted uncached stores. *)

val end_addr : int
(** The first byte past the page directory (0x4000). *)

val flag_present : int64
val flag_writable : int64
val flag_large_page : int64   (** PS bit (bit 7) in a PD entry. *)

val entry : phys:int -> flags:int64 -> int64

val build_identity_map : Memory.t -> int
(** Write the three table levels into guest memory; returns the number of
    64-bit entries written, 514, which the caller charges as uncached
    stores. The page directory goes in as one 4 KB copy: the bytes, dirty
    pages and page faults are those of 514 single stores. On a memory too
    small for the directory it raises {!Memory.Fault} before writing any
    of it. *)

val translate : Memory.t -> int -> int option
(** Walk the tables the way hardware would: returns the physical address
    for a virtual address, or [None] if unmapped. Used by tests to verify
    the identity map and by the CPU when paging is enabled. *)
