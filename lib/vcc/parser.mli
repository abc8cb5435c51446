(** Recursive-descent parser for the virtine C dialect. *)

exception Parse_error of { loc : Ast.loc; msg : string }

val parse : string -> Ast.program
(** Lex and parse a translation unit.
    @raise Parse_error (or {!Lexer.Lex_error}) on malformed input. *)
