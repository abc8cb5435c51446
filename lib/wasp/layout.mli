(** Guest physical memory layout shared by the toolchain and the runtime.

    {v
      0x0000 .. 0x04ff   argument / marshalling area (args land at 0x0, §6.1)
      0x0500 .. 0x0fff   GDT
      0x1000 .. 0x3fff   page tables (long mode)
      0x4000 .. 0x7fff   stack (grows down from 0x8000)
      0x4800 .. 0x523f     hypercall ring (carved from the stack region)
      0x8000 ..          image: code + data, then the heap (brk grows up)
    v}

    Keeping the stack and tables below the image means a virtine's memory
    footprint is contiguous from 0, which is what the snapshot cost model
    measures.

    The hypercall ring (see [Wasp.Ring] and docs/hypercalls.md) occupies
    the bottom 0xA40 bytes of the stack region, spanning the 0x5000 page
    boundary on purpose: snapshot/CoW handling of an in-flight ring always
    exercises the multi-page case. Ring-using guests trade that much stack
    headroom (SP still starts at {!stack_top}); guests that never touch
    the ring are unaffected. *)

val arg_area : int         (** 0x0 *)
val arg_area_size : int
val stack_top : int        (** initial SP: 0x8000 *)
val image_base : int       (** 0x8000 — where Wasp loads images (§5.1) *)
val default_mem_size : int (** 64 KB default guest region *)

(** {1 Hypercall ring carve-out}

    Header: four u64 cursors (monotonically increasing indices; the slot
    is the index modulo {!ring_entries}), then the SQE array, then the
    CQE array. The guest produces at [sq_tail], the host consumes at
    [sq_head] and completes at [cq_tail]; the third cursor, at
    [ring_base + 16], is the guest's own completion cursor, which the
    host never reads. *)

val ring_base : int        (** 0x4800 *)
val ring_entries : int     (** 32 (power of two: slot = index & 31) *)
val ring_sqe_size : int    (** 64 bytes: nr, flags, args0..4, link *)
val ring_cqe_size : int    (** 16 bytes: result, nr *)
val ring_sq_head : int     (** u64: host consumer cursor *)
val ring_sq_tail : int     (** u64: guest producer cursor *)
val ring_cq_tail : int     (** u64: host completion cursor *)
val ring_sqes : int        (** SQE array base (0x4840) *)
val ring_cqes : int        (** CQE array base (0x5040) *)
val ring_size : int        (** 0xA40 *)
val ring_end : int         (** 0x5240: first byte past the ring *)
