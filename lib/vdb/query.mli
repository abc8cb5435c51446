(** The query executor: scans with UDF predicates and projections.

    [isolation] picks where the virtine boundary sits:
    - [Per_row]: every UDF evaluation runs in its own virtine — UDFs are
      isolated from the engine {i and from each other}, the property §7.1
      says per-process V8 cannot give.
    - [Per_query]: one virtine evaluates the whole scan — one boundary
      per query, much cheaper, still isolating the UDF from the engine. *)

type isolation = Per_row | Per_query

val select :
  Udf.t ->
  Table.t ->
  ?where_:string ->
  ?project:string ->
  ?isolation:isolation ->
  unit ->
  (Table.value list list, string) result
(** Scan the table; keep rows where the [where_] UDF is truthy; map each
    kept row through [project] (result rows are single-column) or return
    the full row. [isolation] defaults to [Per_query]. A UDF sees each
    row as an object, column name -> value; a projected value comes back
    as a number rounded to [Int], a string as [Text], a boolean as
    [Int 0]/[Int 1] and a structure as its JSON [Text]. *)

val select_c :
  Udf.t -> Table.t -> where_:string -> unit -> (Table.value list list, string) result
(** Scan with a C-dialect UDF predicate over the table's integer columns
    (each evaluation is one virtine invocation). *)
