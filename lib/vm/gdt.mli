(** Global Descriptor Table construction.

    Protected- and long-mode bring-up requires a GDT; we build a real
    x86-format table (null, flat code, flat data descriptors) in guest
    memory so the boot cost is dominated by genuine memory stores, and so
    tests can check the descriptor encoding against the architectural
    layout. *)

val end_addr : int
(** The first byte past the table {!write} builds (0x518): the table
    starts at 0x500, below the image. *)

type descriptor = {
  base : int;
  limit : int;
  executable : bool;
  long_mode : bool;          (** L bit: 64-bit code segment. *)
  default_32bit : bool;      (** D bit. *)
  granularity_4k : bool;
}

val decode_descriptor : int64 -> descriptor
(** Unpack a split-field x86 segment descriptor (limit/base reassembled
    from the split fields). *)

val write : Memory.t -> long:bool -> int
(** Build a 3-entry GDT at 0x500: null, a flat code segment (base 0,
    limit 0xFFFFF in 4 KB pages; 64-bit when [long]) and a flat data
    segment, in x86 descriptor format. Returns the number of bytes
    written. *)
