(** Guest symbol table: maps program counters back to the function (label)
    that contains them, using the assembler's label/address pairs.

    Labels starting with ['.'] are compiler-local (vcc emits [.L*] branch
    targets and string-pool labels) and are dropped, so attribution
    lands on real function symbols. *)

type t

val of_symbols : (string * int) list -> t
(** Build from [Asm.program.symbols]-style pairs. Sorted internally;
    duplicate addresses keep the first-listed name. *)

val empty : t

val size : t -> int

val symbols : t -> (string * int) list
(** Retained symbols in address order. *)

val lookup : t -> int -> string option
(** The symbol with the greatest address [<= pc] — the enclosing function
    under flat code layout. [None] below the first symbol. *)

val name_at : t -> int -> string
(** Like {!lookup} but renders unmapped PCs as a hex address. *)
