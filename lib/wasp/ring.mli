(** Hypercall ring descriptor codec.

    One io_uring-style submission/completion ring lives in guest memory at
    {!Layout.ring_base} (see docs/hypercalls.md for the full ABI and
    determinism contract). The guest appends SQEs at [sq_tail] and rings
    {!Hc.ring_enter} once; the host drains [sq_head..sq_tail), dispatching
    each entry through the ordinary hypercall handlers, and posts one CQE
    per SQE at [cq_tail]. All cursors are monotonically increasing u64
    indices; the storage slot is the index modulo {!Layout.ring_entries}.

    This module is the pure layout codec — reading and writing descriptors
    in a {!Vm.Memory.t}. Validation, policy, cycle charging and dispatch
    live in {!Runtime}. *)

(** {1 SQE flags} *)

val flag_halt : int64
(** If this op completes with a negative result, every later op in the
    batch completes with {!Hc.err_canceled} instead of dispatching. *)

val flag_link : int64
(** The [link] field names an earlier op {e in the same batch} whose
    result is substituted into one of this op's argument slots before
    dispatch (see {!link_delta}/{!link_pos}). *)

val flag_vec : int64
(** Vectored I/O: args are [(fd, iov_ptr, iov_cnt)] with [iov_cnt] ≤
    {!max_iov} 16-byte [(ptr, len)] entries at [iov_ptr]. Only meaningful
    for [write]/[send]; the host dispatches one operation per segment and
    the CQE result is the sum (first failure wins). *)

type sqe = {
  nr : int;             (** hypercall number *)
  flags : int64;
  args : int64 array;   (** 5 argument slots, r1..r5 equivalents *)
  link : int64;         (** [(pos << 8) | delta] when {!flag_link} is set *)
}

val has : int64 -> int64 -> bool
(** [has flags bit] *)

(** {1 Header cursors} *)

val sq_head : Vm.Memory.t -> int64
val sq_tail : Vm.Memory.t -> int64
val set_sq_head : Vm.Memory.t -> int64 -> unit
val set_cq_tail : Vm.Memory.t -> int64 -> unit

(** {1 Descriptors} *)

val read_sqe : Vm.Memory.t -> index:int64 -> sqe
val write_cqe : Vm.Memory.t -> index:int64 -> nr:int -> result:int64 -> unit
val cqe_result : Vm.Memory.t -> index:int64 -> int64

(** {1 Links}

    A link names its source op by backward distance: [delta] = own index −
    source index (≥ 1, and the source must be in the same batch). [pos]
    selects which argument slot receives the source's result. *)

val link_delta : int64 -> int
val link_pos : int64 -> int

(** {1 Vectored buffers} *)

type iov = { iov_ptr : int64; iov_len : int64 }

val max_iov : int    (** 8 segments per vectored op *)

val read_iov : Vm.Memory.t -> ptr:int64 -> i:int -> iov
