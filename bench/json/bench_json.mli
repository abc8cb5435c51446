(** The [BENCH_<fig>.json] format: every table one figure of the
    evaluation prints, in print order. [bench/main.exe --json-out DIR]
    writes it, [benchdiff] compares it against [bench/baselines/], and
    [test_claims] reads the paper's claims from those baselines.

    A file is [{"fig": FIG, "tables": [TABLE, ...]}], each table
    [{"title"?: T, "header": [...], "rows": [[...], ...]}], every cell a
    string exactly as printed and every row as wide as the header. *)

type table = { title : string option; header : string list; rows : string list list }

val file : string -> string
(** [file fig] is ["BENCH_" ^ fig ^ ".json"]. *)

val write : dir:string -> fig:string -> table list -> string
(** Write [fig]'s tables to [dir/file fig] and return that path. The
    bytes are a function of the tables alone. *)

val read : string -> (table list, string) result
(** Parse one file. [Error] names the path and what is wrong: it cannot
    be read, it is not JSON, it does not have the shape above, or it
    holds no table. *)
