type registration = { source : string; entry : string }

type container = {
  mutable last_used : int64;  (** for keep-alive expiry *)
  mutable free_at : int64;    (** sim time when the in-flight request completes *)
  engine : Vjs.Engine.t;
}

type t = {
  clock : Cycles.Clock.t;
  rng : Cycles.Rng.t;
  functions : (string, registration) Hashtbl.t;
  warm : (string, container list ref) Hashtbl.t;
  max_containers : int;
  mutable live_containers : int;
  mutable cold : int;
  mutable warm_count : int;
}

exception Unknown_function of string

(* ~480 ms: docker-style container create + node/v8 boot, the cold-start
   cost the serverless literature reports for unoptimized OpenWhisk *)
let cold_start_cycles = 1_290_000_000

(* ~9 ms: controller -> invoker -> activation proxy round trip *)
let warm_overhead_cycles = 24_000_000

(* idle container grace period: 60 s at 2.69 GHz *)
let keepalive_cycles = 161_400_000_000L

let v8_speedup = 5.0

(* per node, 22 / 5 truncated: what V8 pays for each node vjs evaluates *)
let v8_cycles_per_node = int_of_float (float_of_int Vjs.Jsinterp.cost_per_node /. v8_speedup)

let v8_cycles : Vjs.Engine.charge -> int = function
  | Nodes n -> n * v8_cycles_per_node
  | Cycles c -> int_of_float (float_of_int c /. v8_speedup)

let create ~clock ?(max_containers = 32) () =
  {
    clock;
    rng = Cycles.Rng.create ~seed:0x515;
    functions = Hashtbl.create 8;
    warm = Hashtbl.create 8;
    max_containers;
    live_containers = 0;
    cold = 0;
    warm_count = 0;
  }

let register t ~name ~source ~entry = Hashtbl.replace t.functions name { source; entry }

let charge t ~pct c = Cycles.Clock.advance_int t.clock (Cycles.Costs.jitter t.rng ~pct c)

let pool t name =
  match Hashtbl.find_opt t.warm name with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace t.warm name l;
      l

(* Find a container that is idle at [now] and not expired; reap expired
   ones along the way. *)
let take_warm t name ~now =
  let l = pool t name in
  let expired c = Int64.compare (Int64.sub now c.last_used) keepalive_cycles > 0 in
  let live, dead = List.partition (fun c -> not (expired c)) !l in
  t.live_containers <- t.live_containers - List.length dead;
  l := live;
  List.find_opt (fun c -> Int64.compare c.free_at now <= 0) live

let invoke t ~now ~name ~input =
  let reg =
    match Hashtbl.find_opt t.functions name with
    | Some r -> r
    | None -> raise (Unknown_function name)
  in
  let start = Cycles.Clock.now t.clock in
  let exec_charge c = Cycles.Clock.advance_int t.clock (v8_cycles c) in
  let container =
    match take_warm t name ~now with
    | Some c ->
        t.warm_count <- t.warm_count + 1;
        charge t ~pct:0.15 warm_overhead_cycles;
        Vjs.Engine.set_charge c.engine exec_charge;
        Ok c
    | None ->
        (* every concurrent slot beyond the warm pool needs a fresh
           container: this is exactly what bursts expose *)
        t.cold <- t.cold + 1;
        if t.live_containers >= t.max_containers then charge t ~pct:0.2 warm_overhead_cycles;
        charge t ~pct:0.10 cold_start_cycles;
        let engine = Vjs.Engine.create ~charge:exec_charge () in
        (match Vjs.Engine.eval engine reg.source with
        | Ok _ ->
            t.live_containers <- t.live_containers + 1;
            let c = { last_used = now; free_at = now; engine } in
            let l = pool t name in
            l := c :: !l;
            Ok c
        | Error msg -> Error msg)
  in
  match container with
  | Error msg -> (Error msg, Cycles.Clock.elapsed_since t.clock start)
  | Ok c ->
      let result =
        match Vjs.Engine.call c.engine reg.entry [ Vjs.Jsvalue.of_bytes input ] with
        | Ok v -> Ok (Vjs.Jsvalue.to_string v)
        | Error msg -> Error msg
      in
      let latency = Cycles.Clock.elapsed_since t.clock start in
      c.free_at <- Int64.add now latency;
      c.last_used <- Int64.add now latency;
      (result, latency)

let cold_starts t = t.cold
let warm_hits t = t.warm_count
