(** In-memory tables for the §7.1 UDF scenario.

    "Postgres, for example, uses V8 mechanisms to isolate individual UDFs
    from one another, but they still execute in the same address space.
    Because virtine address spaces are disjoint, they could help with
    this limitation." This substrate is the database those UDFs run in:
    typed columns, row storage, schema validation. *)

type value = Int of int64 | Text of string

type column_type = Tint | Ttext

type schema = (string * column_type) list

type t

exception Schema_error of string

val create : name:string -> schema -> t
(** @raise Schema_error on duplicate or empty column names. *)

val name : t -> string
val schema : t -> schema

val insert : t -> value list -> unit
(** @raise Schema_error on arity or type mismatch. *)

val insert_all : t -> value list list -> unit

val rows : t -> value list list
(** Insertion order. *)

val length : t -> int

val pp_value : Format.formatter -> value -> unit
