(** Snapshot registry (§5.2, Figure 7).

    The first execution of a function boots its environment, initializes
    its runtime and then hypercalls [snapshot]; later executions restore
    the captured state and skip the boot path entirely. Over the paged
    store a capture is an O(pages) reference grab into the
    content-addressed page cache (identical pages are shared across
    snapshot keys and with the still-running shell), a full restore is a
    page-table swap, and a CoW restore rewrites only the dirty pages.

    Snapshot state is deliberately shared across future virtines of the
    same function — the paper warns that "care must be taken in describing
    what memory is saved" — so the registry is keyed explicitly. The
    registry is LRU-bounded like the shell pool: beyond [capacity] the
    least-recently captured/found key is evicted.

    The store holds no observers: its owner ({!Runtime}) publishes the
    [wasp_snapshot_store_*] series after each capture and drop. *)

type entry = {
  image : Vm.Memory.image;       (** page references, trimmed to footprint *)
  footprint : int;
  regs : int64 array;
  pc : int;
  mode : Vm.Modes.t;
  native_state : (unit -> Univ.t) option;
      (** for native-payload virtines: rebuilds the embedded runtime state
          the memory image represents (see {!Runtime.run_native}). *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 64 entries. @raise Invalid_argument if < 1. *)

val capture :
  t ->
  key:string ->
  mem:Vm.Memory.t ->
  cpu:Vm.Cpu.t ->
  native_state:(unit -> Univ.t) option ->
  int
(** Capture guest state under [key]: publish the memory's pages (deduped
    via the page cache) and trim to the footprint (index of the last
    nonzero byte). Returns the footprint in bytes so the caller can
    charge the page-table build. May evict the LRU entry. *)

val mem : t -> key:string -> bool
(** Whether [key] holds a snapshot; leaves its LRU stamp alone. *)

val find : t -> key:string -> entry option
(** Refreshes [key]'s LRU stamp on a hit. *)

val restore : ?eager:bool -> entry -> mem:Vm.Memory.t -> cpu:Vm.Cpu.t -> int
(** Swap the image's page references in (zeroing beyond them) and
    reinstate registers/PC/mode; leaves the dirty set clear. By default
    O(pages) reference stores, no byte copies — the caller charges the
    O(1) simulated EPT root swap and stores CoW-fault lazily.
    [~eager:true] is the paper's memcpy restore: private copies up
    front, charged as the footprint copy by the caller. Returns the
    footprint. *)

val restore_cow : entry -> mem:Vm.Memory.t -> cpu:Vm.Cpu.t -> int * int
(** Copy-on-write reset: swap back only the page references dirtied since
    the last restore and reinstate registers. Returns
    [(pages, logical_bytes)] restored. Only valid when [mem] already held
    this snapshot's state before the dirtying run — i.e. on a retained
    shell. *)

val clear : t -> key:string -> unit
val count : t -> int

val evictions : t -> int
(** LRU evictions since creation. *)

val total_bytes : t -> int
(** Sum of resident entries' footprints. *)
