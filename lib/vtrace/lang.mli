(** The vtrace probe language.

    A spec is a semicolon-separated list of probes:

    {v
      probe  := SITE [ ':' pred ] '{' action '}'
      pred   := or
      or     := and { '||' and }
      and    := atom { '&&' atom }
      atom   := '!' atom | '(' pred ')' | term cmp term
      term   := FIELD | INT | STRING
      cmp    := '==' | '!=' | '<' | '<=' | '>' | '>='
      action := AGG '(' [ operand ] ')' [ 'by' '(' FIELD {',' FIELD} ')' ]
      AGG    := count | sum | min | max | avg | hist | p
    v}

    [p] takes the quantile first: [p(99.9, cycles)]. [count] takes no
    operand; every other aggregation requires a numeric field. Field
    names are validated against {!Ctx.fields} (aliases allowed, see
    {!Ctx.canonical}); sites against the catalog in [docs/vtrace.md]. String fields compare
    only with [==] / [!=] against string literals. *)

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge
type lit = Int of int64 | Str of string
type term = Field of string  (** canonical name *) | Lit of lit

type pred =
  | True
  | Cmp of term * cmp_op * term
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type aggfun = Count | Sum | Min | Max | Avg | Hist | Quantile of float

type action = {
  agg : aggfun;
  operand : string option;  (** canonical field name; [None] for count *)
  by : string list;  (** canonical grouping fields, possibly empty *)
}

type probe = { site : string; pred : pred; action : action }

type spec = probe list

val parse : string -> (spec, string) result
(** Parse and validate a spec. Errors carry a position and a reason. *)

val probe_to_string : probe -> string
val to_string : spec -> string
(** Canonical rendering; [parse (to_string s) = Ok s] for valid specs. *)

val agg_name : aggfun -> string
(** Metric-safe aggregation name: ["count"], ["p99_9"], … *)
