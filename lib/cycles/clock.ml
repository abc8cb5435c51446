(* Cycles are a host [int]: 63 bits hold 54 years at 2.69 GHz, and an
   unboxed field lets the engine's per-store commit advance the clock
   without allocating. [now] boxes on the way out. *)
type t = { mutable cycles : int }

let default_freq_ghz = 2.69

let create () = { cycles = 0 }

let now t = Int64.of_int t.cycles

let advance_int t c =
  assert (c >= 0);
  t.cycles <- t.cycles + c

let advance t c =
  assert (Int64.compare c 0L >= 0);
  advance_int t (Int64.to_int c)

let freq_ghz _ = default_freq_ghz

let to_ns _ c = Int64.to_float c /. default_freq_ghz

let to_us t c = to_ns t c /. 1e3

let elapsed_since t start = Int64.sub (now t) start
