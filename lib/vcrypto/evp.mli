(** OpenSSL-style EVP layer (§6.4 library integration).

    The paper changed off-the-shelf OpenSSL "so that its 128-bit AES block
    cipher encryption is carried out in virtine context" — a one-keyword
    change plus toolchain integration. This module is the equivalent
    library seam: the same cipher API backed either by the host
    implementation or by a virtine per encryption call.

    In virtine mode each call provisions a shell, restores the cipher
    image snapshot (key schedule already expanded — taken on first use),
    marshals the chunk in via [get_data], encrypts, and publishes the
    result via [return_data]. Those copies are why "virtine creation in
    this example is memory bound". *)

type backend = Native | Virtine of Wasp.Runtime.t

type t

val create : backend -> key:string -> t
(** Set up an AES-128-CBC cipher context. In virtine mode the first
    encryption boots and snapshots the cipher image. *)

val encrypt : t -> iv:bytes -> bytes -> bytes
(** CBC-encrypt one chunk (padded internally to a block multiple).
    Deterministic: both backends produce identical ciphertext. *)

val aes_ni_cycles_per_byte : float
(** Native (host, AES-NI-class) cost used by both backends for the
    cipher arithmetic itself. *)

val image_size : int
(** The virtine cipher image footprint (the paper's was ~21 KB). *)

val native_cycles : len:int -> int
(** Cycles a native encryption of [len] bytes charges. *)
