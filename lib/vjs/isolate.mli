(** A JavaScript function in a virtine: the one embedding of the engine,
    behind the Vespid serverless platform (§7.1), the database UDFs and
    Figure 14's slowdown arms (§6.5).

    The policy admits only [snapshot], [get_data] and [return_data] —
    the §6.5 minimal attack surface. The cold path boots a shell, builds
    the engine in a 48 KB arena of guest memory and loads the source.
    The source is compiled once, at the first invocation (a syntax error
    surfaces there, as an error result). With [snapshot], the cold path
    then snapshots under the isolate's key, and later invocations
    restore: a restore loads the compiled program into an uncharged
    engine instead of parsing the source again. Every invocation pulls
    its input through [get_data] and publishes its result through
    [return_data]. A JavaScript error comes back as an error result,
    after the shell has been cleaned. *)

type t

val create :
  ?snapshot:bool ->
  ?teardown:bool ->
  Wasp.Runtime.t ->
  key:string ->
  source:string ->
  entry:string ->
  t
(** Define an isolate. Nothing runs until the first invocation.
    [snapshot] (default true) snapshots the built engine under [key];
    without it every invocation boots and builds. [teardown] (default
    false) frees the engine context at the end of every invocation,
    charging {!Engine.teardown_cycles}; Figure 14's NT arms and Vespid
    skip it. Invocations carry [isolate:KEY] as their [payload] span
    arg. *)

val on_home_core : t -> unit
(** Make current the core the isolate's next invocation runs on (see
    {!Wasp.Runtime.on_home_core}): a caller that opens spans around an
    invocation calls it before them. *)

val run :
  t ->
  input:bytes ->
  decode:(charge:(int -> unit) -> bytes -> (Jsvalue.t list, string) result) ->
  encode:(Jsvalue.t -> string) ->
  (string, string) result * int64
(** One invocation with a caller's codec. [decode] turns the bytes
    [get_data] fetched into [entry]'s arguments, charging through
    [charge] whatever guest cycles the decode costs; [encode] turns the
    result into the bytes [return_data] publishes. Returns (the
    published output or the error, invocation cycles); a guest fault,
    such as a heap allocation past guest memory, is an error that names
    it. *)

val invoke : t -> input:bytes -> (string, string) result * int64
(** {!run} with the input as an array of byte values
    ({!Jsvalue.of_bytes}), decoded at 2 guest cycles per byte; the
    result is stringified. *)

val call_json : t -> Jsvalue.t list -> (Jsvalue.t, string) result * int64
(** Call [entry] with structured arguments: they cross into the virtine as
    JSON through [get_data], and the result returns as JSON through
    [return_data] — the data never bypasses the checked channel. Functions
    and undefined map to null, as JSON does. *)
