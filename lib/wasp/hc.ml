let port = 0x1

let exit_ = 0
let read = 1
let write = 2
let open_ = 3
let close = 4
let stat = 5
let snapshot = 6
let get_data = 7
let return_data = 8
let send = 9
let recv = 10
let brk = 11
let clock = 12
let getrandom = 13
let ring_enter = 14

let count = 15

let name = function
  | 0 -> "exit"
  | 1 -> "read"
  | 2 -> "write"
  | 3 -> "open"
  | 4 -> "close"
  | 5 -> "stat"
  | 6 -> "snapshot"
  | 7 -> "get_data"
  | 8 -> "return_data"
  | 9 -> "send"
  | 10 -> "recv"
  | 11 -> "brk"
  | 12 -> "clock"
  | 13 -> "getrandom"
  | 14 -> "ring_enter"
  | n -> Printf.sprintf "hc%d" n

let of_name s =
  let rec find n = if n >= count then None else if name n = s then Some n else find (n + 1) in
  find 0

let err_denied = -1L
let err_fault = -14L
let err_badf = -9L
let err_noent = -2L
let err_inval = -22L
let err_canceled = -125L
