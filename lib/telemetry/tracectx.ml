type t = { rng : Cycles.Rng.t }

let create ~seed = { rng = Cycles.Rng.create ~seed }

(* Ids must be non-zero so the all-zeroes id can never collide with a
   real one (mirrors the W3C trace-context invalid-id rule). The draw
   comes from the tracer's own stream, never the simulation RNG, so
   enabling tracing cannot perturb a replay. *)
let rec fresh_id t =
  let v = Cycles.Rng.int64 t.rng in
  if Int64.equal v 0L then fresh_id t else v

(* The 16 digits are written straight into the result instead of
   through Printf. *)
let hex_digits = "0123456789abcdef"

let id_to_string id =
  let hi = Int64.to_int (Int64.shift_right_logical id 32)
  and lo = Int64.to_int id land 0xFFFF_FFFF in
  let b = Bytes.create 16 in
  for i = 0 to 7 do
    let shift = 28 - (4 * i) in
    Bytes.unsafe_set b i (String.unsafe_get hex_digits ((hi lsr shift) land 15));
    Bytes.unsafe_set b (i + 8) (String.unsafe_get hex_digits ((lo lsr shift) land 15))
  done;
  Bytes.unsafe_to_string b

let is_hex_digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* Exactly 16 hex digits: [Int64.of_string] alone would also take a
   sign or a '_' separator. *)
let id_of_string s =
  if String.length s = 16 && String.for_all is_hex_digit s then Int64.of_string_opt ("0x" ^ s)
  else None
