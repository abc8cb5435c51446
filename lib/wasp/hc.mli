(** The hypercall ABI.

    Hypercalls are Wasp's only escape hatch from a virtine (§5.1): they are
    "designed to provide high-level hypervisor services with as few exits
    as possible" — e.g. a [read] that mirrors the POSIX call rather than a
    virtio device. The guest places the hypercall number in r0 and up to
    five arguments in r1-r5, then executes [out 0x1, r0]; the result is
    deposited in r0 before the guest resumes.

    Newlib-style guest code lowers its syscalls onto these numbers
    (§5.3). *)

val port : int
(** The doorbell I/O port (0x1). *)

val exit_ : int        (** exit(code): always permitted — the one default capability. *)
val read : int         (** read(fd, buf, len) *)
val write : int        (** write(fd, buf, len) *)
val open_ : int        (** open(path) -> fd *)
val close : int        (** close(fd) *)
val stat : int         (** stat(path) -> size *)
val snapshot : int     (** snapshot(): capture post-init state (§5.2); once only. *)
val get_data : int     (** get_data(buf, max) -> len: pull invocation input; once only. *)
val return_data : int  (** return_data(buf, len): publish invocation output; once only. *)
val send : int         (** send(sock, buf, len) *)
val recv : int         (** recv(sock, buf, max) -> len *)
val brk : int          (** brk(delta) -> old break (guest heap) *)
val clock : int        (** clock() -> virtual cycle counter *)
val getrandom : int    (** getrandom() -> 64 random bits *)

val ring_enter : int
(** ring_enter(): the batching doorbell. The guest queues descriptors on
    the submission ring ({!Layout.ring_base}, see [Wasp.Ring]) and rings
    once; the host drains every pending entry in that single exit and
    returns the number completed in r0. The doorbell itself is transport
    (always permitted, like [exit_]); each queued operation is still
    policy-checked individually. See docs/hypercalls.md. *)

val count : int
(** Numbers are dense in [0, count). Dispatching a number outside that
    range completes with {!err_inval} — it never falls through to a
    handler. *)

val name : int -> string
(** Human-readable name, "hc<N>" if unknown. *)

val of_name : string -> int option
(** The inverse of {!name} for the numbers below {!count}; [None] for
    any other string, ["hc<N>"] included. *)

val err_denied : int64   (** -1: policy refused the hypercall. *)
val err_fault : int64    (** -14: a guest pointer failed validation. *)
val err_badf : int64     (** -9: unknown descriptor. *)
val err_noent : int64    (** -2: no such file. *)
val err_inval : int64    (** -22: invalid argument (e.g. once-only violated,
                             out-of-range hypercall number, bad ring link). *)
val err_canceled : int64 (** -125: ring op cancelled (an earlier op in the
                             batch halted the chain or a linked dependency
                             failed); the op was never dispatched. *)
