(** User-defined functions, each isolated in virtines (§7.1).

    JS UDFs get two isolates: a row-level one (entry called once per row —
    every evaluation is its own virtine, the strongest isolation) and a
    batch one (a generated driver maps the entry over all rows in a single
    virtine invocation — one isolation boundary per query). Native UDFs
    run on the host and serve as the unisolated baseline.

    "Virtines would allow functions in unsafe languages (e.g., C, C++) to
    be safely used for UDFs": C-dialect UDFs compile with the [virtine]
    annotation and apply to integer columns. *)

type t

exception Unknown_udf of string

val create : Wasp.Runtime.t -> t

val register_js : t -> name:string -> source:string -> entry:string -> unit
(** The entry receives one row as an object ({i column -> value}).
    Registering a name again, with any [register_*], replaces its UDF;
    replacing a JS UDF drops its isolates' snapshots. *)

val register_native : t -> name:string -> (Vjs.Jsvalue.t -> (Vjs.Jsvalue.t, string) result) -> unit

val register_c : t -> name:string -> source:string -> fn:string -> unit
(** [source] is virtine C; [fn] the annotated function. It receives the
    row's integer columns (schema order) as arguments.
    @raise Vcc.Compile.Compile_error *)

val apply_row : t -> name:string -> Vjs.Jsvalue.t -> (Vjs.Jsvalue.t, string) result
(** Evaluate the UDF on one row object — for JS UDFs, one fresh virtine
    per call. @raise Unknown_udf *)

val apply_batch : t -> name:string -> Vjs.Jsvalue.t list -> (Vjs.Jsvalue.t list, string) result
(** Evaluate on all rows in one isolation boundary (one virtine for JS;
    a plain loop for native). @raise Unknown_udf *)

val apply_c : t -> name:string -> int64 list -> (int64, string) result
(** Invoke a C UDF as a virtine with the given integer arguments.
    @raise Unknown_udf *)
