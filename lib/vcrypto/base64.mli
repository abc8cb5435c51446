(** Base64 (RFC 4648) — the workload of the JavaScript virtine study
    (§6.5): the reference implementation the JS engine's output is
    checked against. *)

val encode : string -> string
val decode : string -> string option
(** [None] on invalid input (bad characters or padding). *)
