(* Runtime values. Arrays are growable vectors; objects are string-keyed
   hash tables; a guest function is a closure over its defining scope. *)

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

exception Js_error of string

let vec_create () = { items = Array.make 8 Undefined; len = 0 }

let vec_of_list vs =
  let items = Array.of_list vs in
  { items = (if Array.length items = 0 then Array.make 8 Undefined else items);
    len = List.length vs }

let vec_get v i = if i < 0 || i >= v.len then Undefined else v.items.(i)

let max_length = 1 lsl 22

let vec_grow v cap =
  if cap > Array.length v.items then begin
    if cap > max_length then raise (Js_error "RangeError: invalid array length");
    let items = Array.make (min max_length (max cap (2 * Array.length v.items))) Undefined in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end

let vec_set v i x =
  if i < 0 then raise (Js_error "negative array index")
  else begin
    vec_grow v (i + 1);
    v.items.(i) <- x;
    if i >= v.len then v.len <- i + 1
  end

let vec_push v x = vec_set v v.len x

let vec_pop v =
  if v.len = 0 then Undefined
  else begin
    v.len <- v.len - 1;
    v.items.(v.len)
  end

let vec_to_list v = List.init v.len (fun i -> v.items.(i))

let of_bytes b =
  Arr (vec_of_list (List.init (Bytes.length b) (fun i -> Num (float_of_int (Bytes.get_uint8 b i)))))

let type_name = function
  | Undefined -> "undefined"
  | Null -> "object"
  | Bool _ -> "boolean"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ | Obj _ -> "object"
  | Fun _ | Native _ -> "function"

let truthy = function
  | Undefined | Null -> false
  | Bool b -> b
  | Num n -> n <> 0.0 && not (Float.is_nan n)
  | Str s -> s <> ""
  | Arr _ | Obj _ | Fun _ | Native _ -> true

let number_to_string n =
  if Float.is_integer n && Float.abs n < 1e15 then Printf.sprintf "%.0f" n
  else if Float.is_nan n then "NaN"
  else Printf.sprintf "%g" n

let rec to_string = function
  | Undefined -> "undefined"
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num n -> number_to_string n
  | Str s -> s
  | Arr v -> String.concat "," (List.map to_string (vec_to_list v))
  | Obj _ -> "[object Object]"
  | Fun f -> Printf.sprintf "function %s() { ... }" f.fname
  | Native (n, _) -> Printf.sprintf "function %s() { [native code] }" n

let to_number = function
  | Undefined -> Float.nan
  | Null -> 0.0
  | Bool true -> 1.0
  | Bool false -> 0.0
  | Num n -> n
  | Str s -> (
      match float_of_string_opt (String.trim s) with
      | Some f -> f
      | None -> if String.trim s = "" then 0.0 else Float.nan)
  | Arr _ | Obj _ | Fun _ | Native _ -> Float.nan

(* ToInt32 per ECMA: modulo 2^32, signed *)
let to_int32 v =
  let n = to_number v in
  if Float.is_nan n || Float.is_integer n = false && Float.abs n = Float.infinity then 0l
  else if Float.abs n = Float.infinity then 0l
  else Int32.of_float (Float.rem (Float.of_int (int_of_float n)) 4294967296.0)

let strict_equal a b =
  match (a, b) with
  | Undefined, Undefined | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> x = y
  | Arr x, Arr y -> x == y
  | Obj x, Obj y -> x == y
  | Fun x, Fun y -> x == y
  | Native (_, x), Native (_, y) -> x == y
  | _ -> false

let loose_equal a b =
  match (a, b) with
  | (Undefined | Null), (Undefined | Null) -> true
  | Num _, Str _ -> to_number a = to_number b
  | Str _, Num _ -> to_number a = to_number b
  | Bool _, _ -> to_number a = to_number b
  | _, Bool _ -> to_number a = to_number b
  | _ -> strict_equal a b
