(** Abstract syntax for the virtine C dialect.

    The language is the C subset the paper's examples use — integers,
    chars, pointers, arrays, the usual operators and control flow — plus
    the virtine extensions of §5.3: [virtine], [virtine_permissive] and
    [virtine_config(mask)] function annotations. *)

type loc = { line : int; col : int }

val pp_loc : Format.formatter -> loc -> unit

type ty =
  | Tvoid
  | Tint        (** 64-bit signed *)
  | Tchar       (** 8-bit unsigned in memory, widened in registers *)
  | Tptr of ty
  | Tarray of ty * int

val sizeof : ty -> int
val pp_ty : Format.formatter -> ty -> unit

type unop = Neg | Lognot | Bitnot | Deref | Addrof

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor

type expr = { desc : expr_desc; loc : loc; mutable ty : ty }
(** [ty] is filled in by semantic analysis (initially [Tvoid]). *)

and expr_desc =
  | Int_lit of int64
  | Char_lit of char
  | Str_lit of string        (** decays to [char*] pointing at image data *)
  | Var of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Assign of expr * expr    (** lhs must be an lvalue *)
  | Call of string * expr list
  | Index of expr * expr     (** a[i] *)
  | Cond of expr * expr * expr  (** c ? a : b *)

type stmt =
  | Expr of expr
  | Decl of ty * string * expr option * loc
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Dowhile of stmt list * expr
  | For of stmt option * expr option * expr option * stmt list
  | Return of expr option * loc
  | Break of loc
  | Continue of loc
  | Block of stmt list

(** Virtine annotation on a function (§5.3). *)
type annotation =
  | Not_virtine
  | Virtine                      (** default-deny policy *)
  | Virtine_permissive           (** all hypercalls permitted *)
  | Virtine_config of int64      (** bitmask of permitted hypercalls *)

type func = {
  fname : string;
  annot : annotation;
  ret : ty;
  params : (ty * string) list;
  body : stmt list;
  floc : loc;
}

type global = {
  gname : string;
  gty : ty;
  init : init option;
  gloc : loc;
}

and init =
  | Scalar of int64
  | Array_init of int64 list
  | String_init of string

type program = { globals : global list; funcs : func list }

val find_func : program -> string -> func option
