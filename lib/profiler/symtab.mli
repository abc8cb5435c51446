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

val name_at : t -> int -> string
(** The symbol with the greatest address [<= pc] — the enclosing function
    under flat code layout — or, below the first symbol, the PC as a hex
    address. *)
