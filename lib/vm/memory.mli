(** Guest physical memory — a paged copy-on-write store.

    Each virtine owns a private, bounds-checked memory region; this is the
    mechanism behind the paper's isolation objective that a virtine "may
    not interact with any data or services outside of its own address
    space" (§3.1). Out-of-bounds accesses raise {!Fault}, which the CPU
    reports as a VM exit instead of ever touching host state.

    Internally the region is a page table of 4 KB pages in one of three
    states: the canonical {e zero} page (never materialized), an immutable
    {e shared} page (content-addressed, referenced by any number of
    memories and snapshot images), or a private {e owned} page. Reads
    never materialize anything; the first store to a zero or shared page
    breaks it private — the simulated analogue of an EPT demand-zero fill
    or CoW violation (see {!set_fault_hook}). Snapshot capture publishes
    pages into the process-wide {!Page_cache} and restore is a
    page-table swap, so warm-path work is O(dirty pages), not O(image).

    Private page buffers are recycled. Every path that drops an owned
    page ({!reset_zero}, {!restore_image}, {!restore_image_cow}, and
    {!capture} when a page is all zero or already cached) keeps its
    buffer, and every path that needs one (a demand-zero fill, a CoW
    break, an eager {!restore_image}) takes a kept buffer before it
    allocates, zeroing or overwriting all of it. A memory therefore
    holds at most one buffer per page, resident or spare
    ({!page_stats}), and its contents, page stats and fault-hook calls
    are those of fresh pages. Only the host's allocation changes: a 4 KB
    buffer is a direct major-heap allocation. *)

exception Fault of { addr : int; size : int }
(** Raised on any access outside [0, size). *)

type t

val create : size:int -> t
(** Fresh zeroed memory of [size] bytes (all pages reference the zero
    page; nothing is materialized). *)

val size : t -> int

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
(** Little-endian; result in [0, 2^32). *)

val read_u64 : t -> int -> int64

val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
val write_u64 : t -> int -> int64 -> unit

(** {2 Register moves}

    An [int64] passed to or returned from {!read_u64} / {!write_u64} is
    boxed: with [-opaque] (dune's dev profile) no cross-module call is
    inlined, so every such value is a fresh heap block. These move a
    word between guest RAM and a slot of an unboxed word array — the
    CPU's register file ({!Cpu.regfile}) — with only [int]s crossing the
    call. Bounds, dirty marking, content versions, CoW breaks and the
    fault hook behave exactly as for {!read_u64} / {!write_u64}. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

val load64_into : t -> int -> words -> int -> unit
(** [load64_into t addr dst i] reads the little-endian word at [addr]
    into [dst.{i}]. [dst] is untouched when the read faults. *)

val store_from : t -> int -> int -> words -> int -> unit
(** [store_from t addr n src i] writes the low [n] bytes ([n] is 1, 2, 4
    or 8) of [src.{i}] little-endian at [addr], as {!write_u8} to
    {!write_u64} do. The word is read before the store, so a fault hook
    that runs during it cannot change what is written. *)

val try_store : t -> int -> int -> words -> int -> bool
(** [try_store t addr n src i] makes the same store as {!store_from}
    when it is one no observer can see: the bytes lie in one owned page,
    inside the memory and clear of that page's code extent. Such a
    store cannot fault, reach the fault hook or move a content version,
    so writing the bytes and stamping the page dirty is all of it.
    Otherwise it touches nothing and returns [false], and the caller
    makes the store with {!store_from}. *)

val read_bytes : t -> off:int -> len:int -> bytes
val write_bytes : t -> off:int -> bytes -> unit
(** [write_bytes] skips all-zero chunks aimed at zero pages, so loading a
    zero-padded image materializes only its nonzero pages. The written
    range is marked dirty either way. *)

val equal_bytes : t -> off:int -> bytes -> bool
(** [equal_bytes t ~off b]: the [Bytes.length b] bytes at [off] equal
    [b]. Compares in place, eight bytes at a time, and allocates
    nothing. Raises {!Fault} outside the memory. *)

val read_cstring : t -> off:int -> max:int -> string
(** Read a NUL-terminated string of at most [max] bytes; raises {!Fault}
    if no terminator is found within bounds (hypercall handlers use this to
    validate guest-supplied paths without trusting guest lengths). *)

val reset_zero : t -> unit
(** Pool cleaning: drop every page reference {e and} start a fresh dirty
    generation without touching a byte: the memory reads as zero and
    nothing is dirty. The caller still charges the simulated memset. It
    also forgets every code extent and renews the {!tag} (see
    {e Content versions}). *)

val snapshot : t -> bytes
(** Copy out the full contents as a flat byte string. *)

(** {1 Page images}

    A capture is an O(pages) reference grab: every non-zero page is
    published into the {!Page_cache} (deduping identical content across
    snapshot keys and shells) and the image holds references, trimmed to
    the footprint. Restores swap references back into the page table. *)

type image

val capture : t -> image
(** Publish the current contents as an immutable page image. The source
    memory keeps running: its pages become shared and the next write to
    any of them CoW-faults. *)

val image_footprint : image -> int
(** Index of the last nonzero byte + 1 (0 for an all-zero capture). *)

val image_resident_pages : image -> int
(** Non-zero page references the image holds. *)

val restore_image : ?eager:bool -> t -> image -> int
(** Swap the image's page references in, zero-page the rest, and mark
    everything dirty (callers running a full reset then {!clear_dirty}).
    By default O(pages) reference stores — no byte traffic; later stores
    CoW-fault lazily. [~eager:true] materializes private copies up front
    (the paper's eager memcpy restore — O(footprint) bytes, no later
    faults). Returns the footprint. *)

val restore_image_cow : t -> image -> int * int
(** Rewrite only the pages dirtied since the last {!clear_dirty} with the
    image's references (zero beyond the image). Returns
    [(pages, logical_bytes)] restored; the caller clears the dirty set.
    Only valid when [t] held this image's state before the dirtying run. *)

(** {1 Dirty-page tracking}

    Every write marks its 4 KB page with the current generation stamp;
    {!clear_dirty} bumps the generation, invalidating all stamps in O(1).
    Copy-on-write virtine resets (the SEUSS-style optimization of §7.2)
    restore only the pages the previous invocation touched. *)

val page_size : int
(** 4096. *)

val dirty_pages : t -> int list
(** Indices of pages written since the last {!clear_dirty}, ascending. *)

val dirty_count : t -> int

val clear_dirty : t -> unit

(** {1 Content versions}

    Independent of the dirty stamps, every page carries a monotonic
    {e content version} and a {e code extent}: the half-open byte range
    of the page that translated code was decoded from ({!note_code}). A
    write bumps a page's version only when it overlaps that extent, so
    data stored beside code (a heap sharing the code's page) leaves it
    alone. {!restore_image} rewrites the whole memory and bumps every
    page with an extent; {!restore_image_cow} bumps every page it rewrites;
    {!reset_zero} bumps every page with an extent and then clears all
    extents. The translation cache ({!module:Translate}) records the
    versions of the pages a superblock was decoded from and re-validates
    them before reuse, so a write into any translated byte of a page
    stales every block on that page. {!clear_dirty} changes neither —
    cleaning the dirty set does not alter contents. *)

val note_code : t -> off:int -> len:int -> unit
(** Widen the code extent of each page the [len] bytes at [off] span so
    it covers them. Raises {!Fault} outside the memory. *)

val page_version : t -> int -> int
(** Content version of page [p] (not bounds-checked; callers pass pages
    obtained from successful accesses). *)

type tag

val tag : t -> tag
(** The memory's identity for version checks, compared with [==]: a
    fresh tag per memory, renewed by {!reset_zero}. Versions are per
    memory, so two memories can show equal versions over different
    bytes; a reader compares versions only under the tag it read them
    with. A tag holds none of the memory's state. *)

(** {1 Fault accounting} *)

val set_fault_hook : t -> (shared:bool -> page:int -> unit) option -> unit
(** Called on every page materialization: [shared = true] for a CoW break
    of a shared page (the simulated EPT write-protection violation),
    [false] for a demand-zero fill. The simulated KVM installs this to
    charge cycle costs and feed the flight recorder. *)

type page_stats = {
  total_pages : int;
  resident_pages : int;   (** privately materialized (owned) pages *)
  shared_pages : int;     (** references into the content-addressed cache *)
  zero_pages : int;
  spare_pages : int;      (** dropped private buffers kept for reuse;
                              [resident_pages + spare_pages <= total_pages] *)
  cow_faults : int;       (** shared pages broken private over [t]'s life *)
  zero_fills : int;       (** demand-zero materializations *)
}

val page_stats : t -> page_stats
(** One scan of the page table. *)

(** {1 Content-addressed page cache}

    Process-wide dedup table keyed by page-content digest. Bounded FIFO
    of 8192 pages (32 MB): eviction only loses future dedup (live references keep their buffers
    alive), never correctness. *)

module Page_cache : sig
  val entries : unit -> int
  val bytes : unit -> int
  val hits : unit -> int
  (** Interns that found an identical resident page. *)

  val misses : unit -> int

  val reset : unit -> unit
  (** Drop the table and zero the stats (tests). Outstanding references
      remain valid. *)
end
