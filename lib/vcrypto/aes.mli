(** AES-128 (FIPS-197), from scratch.

    Stands in for OpenSSL's 128-bit AES block cipher in the §6.4 library
    integration study: the same deeply buried, hot function the paper
    moved into virtine context. The raw block cipher and CBC are
    provided, because the paper benchmarks [aes-128-cbc].

    The implementation is the straightforward byte-oriented cipher
    (S-box, ShiftRows, MixColumns over GF(2^8)). *)

type key_schedule

val expand_key : string -> key_schedule
(** Key expansion. The key must be exactly 16 bytes.
    @raise Invalid_argument otherwise. *)

val encrypt_block : key_schedule -> bytes -> pos:int -> bytes
(** Encrypt the 16-byte block at [pos]; returns a fresh 16-byte block. *)

val encrypt_cbc : key_schedule -> iv:bytes -> bytes -> bytes
(** CBC mode; [iv] must be 16 bytes, input a multiple of 16. *)

val decrypt_cbc : key_schedule -> iv:bytes -> bytes -> bytes

val pkcs7_pad : bytes -> bytes
(** Pad to a 16-byte multiple (always adds at least one byte). *)

val pkcs7_unpad : bytes -> bytes option
(** [None] if the padding is malformed. *)

val key_expansion_cycles : int
