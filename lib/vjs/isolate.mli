(** A JavaScript function in a virtine: the reusable embedding behind both
    the Vespid serverless platform (§7.1) and database UDFs.

    Each isolate owns a snapshot key: the first invocation boots a shell,
    builds the engine inside guest memory, loads the source and snapshots;
    later invocations restore and run. The source is compiled once, at
    the first invocation (a syntax error surfaces there, as an error
    result); a restore loads that compiled program into an uncharged
    engine instead of parsing the source again. The policy admits only [snapshot],
    [get_data] and [return_data] — the §6.5 minimal attack surface. *)

type t

val create : Wasp.Runtime.t -> key:string -> source:string -> entry:string -> t
(** Define an isolate. Nothing runs until the first invocation. *)

val invoke : t -> input:bytes -> (string, string) result * int64
(** Call [entry] with the input as an array of byte values; the result is
    stringified. Returns (result, invocation cycles). *)

val call_json : t -> Jsvalue.t list -> (Jsvalue.t, string) result * int64
(** Call [entry] with structured arguments: they cross into the virtine as
    JSON through [get_data], and the result returns as JSON through
    [return_data] — the data never bypasses the checked channel. Functions
    and undefined map to null, as JSON does. *)

val key : t -> string
val source : t -> string
val entry : t -> string
