(** Disassembler for vx images.

    Renders an encoded blob back to readable assembly with addresses,
    resolving branch targets to labels where a symbol table is available
    (the objdump of this toolchain). *)

val of_program : Asm.program -> string
(** Disassemble a program's code by linear sweep from its origin, one
    line per instruction: address, hex bytes, mnemonic. An undecodable
    byte becomes a one-byte [.byte] data line and the sweep
    resynchronizes at the next byte. Label definitions are interleaved
    and branch targets annotated from the program's symbol table. *)
