(** Semantic analysis: scope resolution and type annotation.

    Walks the AST filling in every expression's [ty] field and rejecting
    the errors the paper's clang pass would reject: unknown identifiers,
    arity mismatches, assignment to non-lvalues, [break]/[continue]
    outside loops, duplicate definitions, and virtine functions with
    non-scalar parameters (the marshaller copies 64-bit words at address
    0, §7.2). *)

exception Sema_error of { loc : Ast.loc; msg : string }

val check : Ast.program -> Ast.program
(** Returns the same program with expression types filled in.
    @raise Sema_error on the first violation. *)
