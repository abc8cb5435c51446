(** x86-style processor modes.

    The paper (§4.2, Figure 3) shows that tailoring a virtine to the
    cheapest sufficient mode saves boot cycles: real mode skips the GDT,
    protected-mode transition and paging entirely. Our CPU truncates
    register results to the mode's width and bounds the addressable range
    accordingly. *)

type t = Real | Protected | Long

val width_bits : t -> int
(** 16 / 32 / 64. *)

val address_limit : t -> int
(** Highest addressable byte + 1: 1 MB in real mode, 4 GB in protected
    mode, and the 1 GB identity-mapped region in long mode (the boot
    sequence maps the first 1 GB with 2 MB pages, Table 1). *)

val mask : t -> int64 -> int64
(** Truncate a value to the mode width (zero-extended representation). *)

val sext : t -> int64 -> int64
(** Sign-extend a mode-width value to 64 bits (for signed compares,
    division and arithmetic shifts). *)

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string} (["real"] / ["protected"] / ["long"]). *)

val equal : t -> t -> bool
val all : t list
