(** Code generation: typed AST -> vx assembly.

    A straightforward accumulator/stack scheme: expression results land in
    r0, intermediates are spilled to the guest stack, locals live in a
    frame addressed from r13 (the frame pointer). Calls pass up to six
    arguments in r0-r5 (matching the image entry stub, which pulls the
    marshalled arguments from guest address 0). *)

exception Codegen_error of string

val gen_image_items :
  Ast.program -> root:Ast.func -> snapshot:bool -> Callgraph.reachable -> Asm.item list
(** The complete item list for a virtine image: crt0 (with optional
    snapshot point), the argument-unmarshalling stub, all reachable
    functions, the libc library, reachable globals, and the heap-start
    marker. Entry label: {!Vlibc.entry_label}. *)

val global_label : string -> string
(** Label carrying a global variable's storage ([g_<name>]). *)

val function_label : string -> string
(** [fn_<name>]. *)
