(** The vjs evaluator: a compiler from the AST to OCaml closures.

    A program is compiled once, with identifiers resolved to frame slots
    and operators to specialised closures; compiled code holds no engine,
    so every engine that runs a program shares it. The cost contract is
    the tree-walking evaluator's: {!cost_per_node} cycles for every AST
    node evaluated, in evaluation order. An assignment charges its own
    node but not its target's (whose receiver and index it evaluates
    after the value), [typeof name] does not charge the name, and
    top-level expression statements charge no statement node. So the
    same engine runs with identical semantics and charges on the host
    (baseline) and inside a virtine (guest-charged) — only where the
    cycles land differs. A step budget bounds hostile scripts (each
    top-level entry resets it): a node past it raises and is never
    charged.

    {b The charge hook.} Only the host can read the clock the hook
    advances, so nodes are not delivered one at a time: evaluating a
    node only counts it, and the nodes counted since the last delivery
    reach the hook as one [Nodes n] at each host boundary:
    - before a [Native] runs, however it is reached (a call, an object
      method, or the callback of [map], [filter], [forEach] or
      [reduce]);
    - before an explicit {!charge};
    - at {!flush}, which {!Engine} calls when an entry returns or
      raises.

    So whenever host code runs, the hook has received every node
    evaluated so far, and a hook that sums [n * cost_per_node] sees the
    tree walker's running total. *)

type interp

val cost_per_node : int

type charge =
  | Nodes of int  (** that many nodes evaluated since the last delivery *)
  | Cycles of int  (** an explicit charge: parse, context, bindings, teardown *)
(** What one call of the hook receives. *)

val create : ?charge:(charge -> unit) -> ?max_steps:int -> unit -> interp
(** An interpreter with empty globals. [max_steps] defaults to 50M per
    entry. *)

val charge : interp -> int -> unit
(** Deliver the pending nodes, then charge [Cycles] through the hook. *)

val flush : interp -> unit
(** Deliver the nodes counted since the last delivery, if any. *)

val set_charge : interp -> (charge -> unit) -> unit

val reset_steps : interp -> unit
(** The budget bounds a single top-level entry, not the engine lifetime;
    {!Engine.run} and {!Engine.call} reset it. *)

val steps : interp -> int
(** Nodes evaluated since the last {!reset_steps}. *)

val define : interp -> string -> Jsvalue.t -> unit
(** Bind a global. *)

val lookup : interp -> string -> Jsvalue.t option

exception Return_exc of Jsvalue.t
(** A [return] outside any function. *)

exception Throw_exc of Jsvalue.t
(** A guest [throw]; caught by guest [try] or surfaced by the engine. *)

type program

val compile : Jsast.program -> program
(** @raise Invalid_argument on [break] or [continue] outside a loop of
    the same function, which {!Jsparse.parse} rejects. *)

val run : interp -> program -> Jsvalue.t
(** Bind the top-level function declarations, then run the other
    top-level statements in order. Returns the value of the last
    top-level expression statement, or [Undefined].
    @raise Jsvalue.Js_error on runtime errors. *)

val call : interp -> Jsvalue.t -> Jsvalue.t list -> Jsvalue.t
(** Apply a [Fun] or [Native] value; a [Native] runs after the pending
    nodes reach the hook.
    @raise Jsvalue.Js_error if the value is not callable. *)
