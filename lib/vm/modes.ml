type t = Real | Protected | Long

let width_bits = function Real -> 16 | Protected -> 32 | Long -> 64

let address_limit = function
  | Real -> 1 lsl 20
  | Protected -> 1 lsl 32
  | Long -> 1 lsl 30

let mask mode v =
  match mode with
  | Real -> Int64.logand v 0xFFFFL
  | Protected -> Int64.logand v 0xFFFFFFFFL
  | Long -> v

let sext mode v =
  match mode with
  | Real -> Int64.shift_right (Int64.shift_left v 48) 48
  | Protected -> Int64.shift_right (Int64.shift_left v 32) 32
  | Long -> v

let to_string = function Real -> "real" | Protected -> "protected" | Long -> "long"

let of_string = function
  | "real" -> Some Real
  | "protected" -> Some Protected
  | "long" -> Some Long
  | _ -> None

let equal (a : t) (b : t) = a = b

let all = [ Real; Protected; Long ]
