type loc = { line : int; col : int }

let pp_loc ppf l = Format.fprintf ppf "%d:%d" l.line l.col

type ty = Tvoid | Tint | Tchar | Tptr of ty | Tarray of ty * int

let rec sizeof = function
  | Tvoid -> 0
  | Tint -> 8
  | Tchar -> 1
  | Tptr _ -> 8
  | Tarray (t, n) -> sizeof t * n

let rec pp_ty ppf = function
  | Tvoid -> Format.pp_print_string ppf "void"
  | Tint -> Format.pp_print_string ppf "int"
  | Tchar -> Format.pp_print_string ppf "char"
  | Tptr t -> Format.fprintf ppf "%a*" pp_ty t
  | Tarray (t, n) -> Format.fprintf ppf "%a[%d]" pp_ty t n

type unop = Neg | Lognot | Bitnot | Deref | Addrof

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor

type expr = { desc : expr_desc; loc : loc; mutable ty : ty }

and expr_desc =
  | Int_lit of int64
  | Char_lit of char
  | Str_lit of string
  | Var of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Assign of expr * expr
  | Call of string * expr list
  | Index of expr * expr
  | Cond of expr * expr * expr

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

type annotation = Not_virtine | Virtine | Virtine_permissive | Virtine_config of int64

type func = {
  fname : string;
  annot : annotation;
  ret : ty;
  params : (ty * string) list;
  body : stmt list;
  floc : loc;
}

type global = { gname : string; gty : ty; init : init option; gloc : loc }

and init = Scalar of int64 | Array_init of int64 list | String_init of string

type program = { globals : global list; funcs : func list }

let find_func p name = List.find_opt (fun f -> f.fname = name) p.funcs
