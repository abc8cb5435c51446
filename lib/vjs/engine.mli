(** Duktape-style embedding API (§6.5).

    Mirrors the lifecycle the paper's baseline measures: allocate an
    engine context (expensive: heap + built-in objects), populate native
    function bindings, evaluate code, and tear the context down. Each
    stage charges its calibrated cost through the engine's charge hook so
    the same engine can run on the host (baseline) or inside a virtine
    (costs accrue as guest cycles), and so snapshot / no-teardown
    optimizations skip exactly the right work.

    The cost contract: running a script charges [parse_cycles_per_token]
    per token (end of input included), then {!Jsinterp.cost_per_node}
    per AST node evaluated. A script is tokenised, parsed
    and compiled once into a {!program}, which any number of engines can
    run; each run charges the parse cost again, because that is what a
    fresh context would pay. A snapshot restore does not: it loads the
    compiled program into an uncharged engine, and the restore memcpy
    carries the cost.

    The hook is called at host boundaries, not per node. Each stage's
    cost arrives as [Cycles c]. Nodes arrive as [Nodes n], the count
    evaluated since the last delivery, before any native runs, before
    an explicit charge, and when {!run}, {!eval} or {!call} returns or
    raises. Between two entries nothing is pending, so a hook swapped by
    {!set_charge} never receives another entry's nodes. *)

type t

type charge = Jsinterp.charge = Nodes of int | Cycles of int

val cycles : charge -> int
(** What a delivery costs at the engine's own rates: [Nodes n] is [n]
    times {!Jsinterp.cost_per_node}, [Cycles c] is [c]. A hook that
    advances a clock by [cycles c] charges what a per-node hook would. *)

val context_alloc_cycles : int
(** Allocating the context: heap arena, built-in objects, string interning
    tables. Dominant Duktape setup cost. *)

val binding_cycles : int
(** Registering the native bindings for one context. *)

val teardown_cycles : int
(** Freeing the context (walks and frees the heap). *)

val parse_cycles_per_token : int

val create : ?charge:(charge -> unit) -> ?max_steps:int -> unit -> t
(** Allocate a context and populate default bindings (Math, String,
    parseInt, ...); charges [context_alloc_cycles + binding_cycles].
    [max_steps] (default 5M) bounds the nodes one {!run}, {!eval} or
    {!call} may evaluate. *)

val register : t -> string -> (Jsvalue.t list -> Jsvalue.t) -> unit
(** Bind a native function into the global object (duk_push_c_function). *)

type program
(** A compiled script. It holds no engine, so engines share it. *)

val compile : string -> program
(** Tokenise, parse and compile. Charges nothing: a syntax error is kept
    in the program and surfaces when it runs. *)

val run : t -> program -> (Jsvalue.t, string) result
(** Execute a compiled script in the global scope, function
    declarations first; charges the parse cost (unless lexing failed)
    and per-node evaluation costs. The result is the value of the last
    top-level expression statement, or [Undefined]. *)

val eval : t -> string -> (Jsvalue.t, string) result
(** [run t (compile src)]. *)

val call : t -> string -> Jsvalue.t list -> (Jsvalue.t, string) result
(** Call a global function by name. *)

val destroy : t -> unit
(** Charge the teardown cost. The no-teardown optimization simply does
    not call this. *)

val set_charge : t -> (charge -> unit) -> unit
(** Swap the charge hook: a snapshot-restored engine was rebuilt without
    charging (the restore memcpy carries that cost), but its subsequent
    execution must charge the current invocation. *)

val console_output : t -> string
(** Text printed via [print]/[console_log]. *)

val steps : t -> int
(** Nodes evaluated by the latest {!run}, {!eval} or {!call}, counting
    any that exceeded the budget. *)
