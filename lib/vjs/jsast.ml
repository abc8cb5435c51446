(* AST for the vjs JavaScript subset. [this] is not supported in user
   functions; built-in methods are dispatched on the receiver's kind. *)

type expr =
  | Enum of float
  | Estr of string
  | Ebool of bool
  | Enull
  | Eundefined
  | Eident of string
  | Earray of expr list
  | Eobject of (string * expr) list
  | Efun of string list * stmt list       (* function expression *)
  | Ecall of expr * expr list
  | Emethod of expr * string * expr list  (* receiver.name(args) *)
  | Eprop of expr * string
  | Eindex of expr * expr
  | Eunop of string * expr
  | Ebinop of string * expr * expr
  | Eassign of expr * expr
  | Econd of expr * expr * expr
  | Etypeof of expr

and stmt =
  | Sexpr of expr
  | Svar of string * expr option
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of stmt option * expr option * expr option * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sfundecl of string * string list * stmt list
  | Sblock of stmt list
  | Sthrow of expr
  | Stry of stmt list * (string * stmt list) option * stmt list
      (* try body, optional catch (binding, body), finally body *)

type program = stmt list
