(** Parser for the vjs JavaScript subset. *)

exception Error of { line : int; msg : string }

val parse : (Jslex.token * int) list -> Jsast.program
(** Parse the output of {!Jslex.tokenize}. [break] and [continue]
    outside a loop of the same function are syntax errors, as in
    JavaScript.
    @raise Error on malformed input. *)
