(* Coverage signal: deterministic execution features hashed into a
   fixed bitmap.

   Nothing here instruments the VMM — every feature is read back from
   observability surfaces that already exist: the always-on
   kvm_exits_total{reason} tally, exit-kind edges from the flight ring,
   the profiler's per-opcode table, and vtrace per-site firing maps.
   Counts are bucketized to their log2 so "ran the loop 1000 vs 1001
   times" is not novelty but "first time a guest took 1000+ EPT
   violations" is. *)

let bitmap_bits = 1 lsl 16

type t = {
  bits : Bytes.t;
  mutable set_count : int;
}

let create () = { bits = Bytes.make (bitmap_bits / 8) '\000'; set_count = 0 }

let bit_count t = t.set_count

(* FNV-1a; Hashtbl.hash is not stable across compiler versions and the
   corpus bitmap must be. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h (Int64.of_int (bitmap_bits - 1)))

let log2_bucket v =
  if v <= 0 then 0
  else
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v

let feature name v = Printf.sprintf "%s#%d" name (log2_bucket v)

(* Mark the features' bits; returns how many were new. *)
let observe t features =
  List.fold_left
    (fun fresh f ->
      let bit = fnv1a f in
      let byte = bit lsr 3 and mask = 1 lsl (bit land 7) in
      let cur = Char.code (Bytes.get t.bits byte) in
      if cur land mask <> 0 then fresh
      else begin
        Bytes.set t.bits byte (Char.chr (cur lor mask));
        t.set_count <- t.set_count + 1;
        fresh + 1
      end)
    0 features

(* ------------------------------------------------------------------ *)
(* Feature extraction                                                  *)
(* ------------------------------------------------------------------ *)

let flight_kind_name : Profiler.Flight.kind -> string = function
  | Exit Halt -> "hlt"
  | Exit (Io_out { port; _ }) -> Printf.sprintf "out%d" port
  | Exit (Io_in { port; _ }) -> Printf.sprintf "in%d" port
  | Exit (Fault _ as e) -> "fault:" ^ Format.asprintf "%a" Vm.Cpu.pp_exit e
  | Exit Out_of_fuel -> "fuel"
  | Ept _ -> "ept"
  | Injected site -> "inj:" ^ site

(* Exit-kind edges: consecutive flight-ring entries as (from, to)
   pairs — the control-flow-sensitive half of the exit signal. *)
let flight_features flight =
  let kinds =
    List.map (fun e -> flight_kind_name e.Profiler.Flight.kind) (Profiler.Flight.entries flight)
  in
  let rec edges acc = function
    | a :: (b :: _ as rest) -> edges (("edge:" ^ a ^ ">" ^ b) :: acc) rest
    | _ -> acc
  in
  (* edges as presence features (no counts): the ring is bounded,
     so counting would make coverage depend on ring capacity *)
  List.sort_uniq compare (edges [] kinds)

let kvm_features sys =
  List.map (fun (reason, n) -> feature ("exit:" ^ reason) n) (Kvmsim.Kvm.exit_reason_counts sys)

let opcode_features prof =
  List.map
    (fun (op : Profiler.Profile.op_stat) -> feature ("op:" ^ op.Profiler.Profile.op_name) op.op_count)
    (Profiler.Profile.opcodes prof)

let vtrace_features engine =
  List.map (fun (name, v) -> feature ("vt:" ^ name) (int_of_float v)) (Vtrace.Engine.coverage engine)

let outcome_features ~outcome ~ret ~hypercalls ~denied =
  [
    "outcome:" ^ outcome;
    feature "ret" (Int64.to_int (Int64.logand ret 0xFFFFFFFFL));
    feature "hc" hypercalls;
    feature "denied" denied;
  ]
