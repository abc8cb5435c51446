(** Runtime values of the vjs JavaScript engine.

    Numbers are IEEE doubles, arrays are growable vectors, objects are
    string-keyed hash tables, and a guest function ([Fun]) applies its
    compiled body in the scope it was defined in (a closure). [Native]
    embeds host functions (the [duk_push_c_function] analogue). *)

type t =
  | Undefined
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of vec
  | Obj of (string, t) Hashtbl.t
  | Fun of fn
  | Native of string * (t list -> t)

and vec = { mutable items : t array; mutable len : int }

and fn = { fname : string; call : t list -> t }
(** [call] runs the function on its arguments, charging the engine that
    created it (its nodes reach that engine's hook at the engine's next
    host boundary, see {!Jsinterp}); a missing argument is [Undefined].
    Every evaluation of a function expression or declaration makes a new
    [fn], and [===] compares them physically. *)

exception Js_error of string
(** Runtime errors (reference errors, type errors, step-budget
    exhaustion). Catchable by guest [try]. *)

(** {1 Vectors} *)

val max_length : int
(** The longest array or string a script can grow: 2{^22} elements or
    bytes, a thousand times the largest value any workload builds (a few
    KB). Storing past it (through {!vec_set} or {!vec_push}) raises
    [Js_error "RangeError: invalid array length"]; the engine's string
    [+] raises ["RangeError: invalid string length"]. Both are catchable
    by guest [try]. Arrays built whole from host data ({!vec_of_list},
    {!of_bytes}) are not checked. *)

val vec_create : unit -> vec
val vec_of_list : t list -> vec
val vec_get : vec -> int -> t
(** Out-of-range reads yield [Undefined], as in JS. *)

val vec_set : vec -> int -> t -> unit
(** Grows the vector (holes become [Undefined]).
    @raise Js_error on a negative index or one of {!max_length} or
    more. *)

val vec_push : vec -> t -> unit
val vec_pop : vec -> t
val vec_to_list : vec -> t list

val of_bytes : bytes -> t
(** The bytes as an array of their values (0-255): how a byte payload
    reaches a JavaScript function. *)

(** {1 Coercions (ECMA-flavoured)} *)

val type_name : t -> string
(** The [typeof] string. *)

val truthy : t -> bool
val to_string : t -> string
val number_to_string : float -> string
val to_number : t -> float
val to_int32 : t -> int32
(** ToInt32, used by the bitwise operators. *)

val strict_equal : t -> t -> bool   (** [===]: no coercion, reference equality for objects. *)
val loose_equal : t -> t -> bool    (** [==]: number/string/bool coercion. *)
