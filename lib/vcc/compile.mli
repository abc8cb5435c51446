(** The vcc driver: the paper's clang-wrapper + LLVM-pass analogue.

    [compile] parses and checks a translation unit, finds every
    virtine-annotated function, cuts its call graph, and packages a
    self-contained image (crt0 + unmarshalling stub + reachable functions
    + libc + globals). Virtines get snapshotting by default, like the C
    extensions in §5.3 ("All virtines created via our language extensions
    use Wasp's snapshot feature by default"), which can be disabled per
    compile.

    The host-side call paths:
    - {!invoke} runs a virtine function under a {!Wasp.Runtime} with the
      policy derived from its annotation;
    - {!invoke_native} runs the same compiled code directly on a bare CPU
      with no virtualization, boot, or hypercall costs — the "native"
      baseline of Figures 11/13. *)

exception Compile_error of string

type virtine_info = {
  func : Ast.func;
  image : Wasp.Image.t;
  asm : Asm.program;
  policy : Wasp.Policy.t;   (** derived from the annotation; includes [snapshot] *)
  snapshot : bool;
}

type compiled

val compile :
  ?snapshot:bool ->
  ?mode:Vm.Modes.t ->
  ?mem_size:int ->
  ?name:string ->
  ?optimize:bool ->
  string ->
  compiled
(** Compile source text. [snapshot] (default true) controls the
    environment-variable opt-out the paper mentions. [mode] (default
    [Long]) selects the processor mode images boot to (Figure 3).
    [optimize] (default false) enables the {!Optim} passes (constant
    folding + peephole).
    @raise Compile_error (wrapping lexer/parser/sema/codegen errors). *)

val ast : compiled -> Ast.program
val virtines : compiled -> virtine_info list
val find_virtine : compiled -> string -> virtine_info option

val invoke :
  Wasp.Runtime.t ->
  compiled ->
  string ->
  int64 list ->
  ?handlers:(int -> Wasp.Inv.handler option) ->
  ?conn:Wasp.Hostenv.endpoint ->
  ?fuel:int ->
  unit ->
  Wasp.Runtime.result
(** Run an annotated function as a virtine. Raises [Not_found] if the
    function is not virtine-annotated. *)

val invoke_native :
  clock:Cycles.Clock.t -> compiled -> string -> int64 list -> ?fuel:int -> unit -> int64
(** Run the same function natively (bare CPU, no virtualization). Any
    function of the program (annotated or not) can be called; cycles are
    charged to [clock]. [fuel] (default 500M) bounds the instructions
    the whole call may retire. Raises [Compile_error] if the guest faults
    or runs out of fuel.

    A [compiled] owns each native function's guest memory and
    translation cache, made at its first call. Every call starts by
    resetting that memory to zero (its page buffers and translated
    blocks are kept), so no state carries from one call to the next: a
    call returns the value and charges the cycles it would on a fresh
    compile, after a fault or a fuel-out too. Two domains must not call
    one [compiled] at once. *)
