(** The §6.5 JavaScript workload: a base64 UDF over a buffer, run either
    on the host (the paper's Duktape baseline) or in a virtine through
    {!Isolate}, the one embedding. Figure 14's arms are isolates of
    {!base64_js_source} with entry ["encode"] that differ in [snapshot]
    and [teardown]. *)

val base64_js_source : string
(** The untrusted UDF: [encode(data)] over an array of byte values. *)

val make_input : size:int -> bytes
(** Deterministic pseudo-random input buffer. *)

val reference_encode : bytes -> string
(** Host-side reference (vcrypto base64) the JS result must match. *)

type outcome = { latency_cycles : int64; output : string }

val run_baseline : clock:Cycles.Clock.t -> input:bytes -> outcome
(** Allocate a Duktape-style context, bind natives, evaluate the UDF,
    encode, tear down — all on the host (the paper's 419 us baseline). *)

val run_virtine : Isolate.t -> input:bytes -> (string, string) result * int64
(** One invocation of the isolate's entry on the input as an array of
    byte values, like {!Isolate.invoke} but with an uncharged decode:
    Figure 14 measures the engine, not the argument marshalling. *)
