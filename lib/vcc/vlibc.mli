(** The guest C library (our newlib port, §5.3).

    "Newlib allows developers to provide their own system call
    implementations; we simply forward them to the hypervisor as a
    hypercall." Accordingly, every libc syscall here compiles to the
    hypercall ABI, and a small set of pure routines (malloc, memcpy,
    string functions) is provided as vx assembly linked into every image
    that needs them. *)

type builtin =
  | Hypercall of int        (** lower to the hypercall with this number *)
  | Inline_rdtsc            (** the rdtsc instruction *)
  | Library                 (** call a generated [__vl_<name>] routine *)

type signature = { params : Ast.ty list; ret : Ast.ty; kind : builtin }

val lookup : string -> signature option
(** Builtin by C-visible name ([read], [write], [malloc], ...). *)

val is_builtin : string -> bool

val items_for : string list -> Asm.item list
(** Selective linking: only the requested routines (and their internal
    dependencies, e.g. [puts] pulls in [strlen]) plus the heap state the
    crt0 always initializes. This is how "a virtine image contains only
    the software that a function needs" (§2). Unknown names are
    ignored. Routines are labelled [__vl_<name>], use r0-r5 and r11/r12
    as scratch, and follow compiled code's calling convention (args in
    r0-r5, result in r0). *)

val init_items : snapshot:bool -> Asm.item list
(** The crt0-style entry prologue: initialize the heap and libc state
    (the work a snapshot can skip), optionally take the snapshot, and
    fall through to the label [__start_main]. *)

val entry_label : string       (** "__entry": image entry point. *)
val post_init_label : string   (** "__start_main": where bare (native) runs may begin. *)
val heap_ptr_label : string    (** "__heap_ptr": the bump allocator's break. *)
