(** Global Descriptor Table construction.

    Protected- and long-mode bring-up requires a GDT; we build a real
    x86-format table (null, flat code, flat data descriptors) in guest
    memory so the boot cost is dominated by genuine memory stores, and so
    tests can check the descriptor encoding against the architectural
    layout. *)

val base_addr : int
(** Where the boot sequence places the GDT (0x500, below the image). *)

val end_addr : int
(** The first byte past the table {!write} builds (0x518). *)

type descriptor = {
  base : int;
  limit : int;
  executable : bool;
  long_mode : bool;          (** L bit: 64-bit code segment. *)
  default_32bit : bool;      (** D bit. *)
  granularity_4k : bool;
}

val encode_descriptor : descriptor -> int64
(** Pack into the split-field x86 segment descriptor format. *)

val decode_descriptor : int64 -> descriptor
(** Inverse of {!encode_descriptor} (limit/base reassembled from the split
    fields). *)

val flat_code : long:bool -> descriptor
val flat_data : descriptor

val write : Memory.t -> long:bool -> int
(** Build a 3-entry GDT (null, code, data) at {!base_addr}; returns the
    number of bytes written. *)
