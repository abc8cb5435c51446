(* vtrace: the probe language (parse/print round trips), the bounded
   keyed aggregations, the engine (budgets, key caps, rendering), every
   probe site in the stack actually firing, and the determinism
   contract: attaching probes changes no guest-visible result on either
   execution engine. *)

module L = Vtrace.Lang
module A = Vtrace.Agg
module E = Vtrace.Engine
module Ctx = Vtrace.Ctx
module R = Wasp.Runtime

let parse_ok s =
  match L.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let engine_ok ?budget ?key_capacity s =
  match E.of_string ?budget ?key_capacity s with
  | Ok e -> e
  | Error e -> Alcotest.failf "engine %S failed: %s" s e

(* A context as a site would build it, with the other fields zero. *)
let ctx ?(reason = "") ?(nr = 0L) site =
  { Ctx.site; core = 0; trace = None; fn = ""; pc = 0; reason; cycles = 0L; fuel = 0; nr }

let contains_sub text sub =
  let n = String.length sub and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Language: round trips and rejections                                 *)
(* ------------------------------------------------------------------ *)

let round_trip_specs =
  [
    "exit { count() }";
    "exit { count() by (reason) }";
    "exit:reason == \"hypercall\" && cycles > 5000 { hist(cycles) by (fn, nr) }";
    "hypercall:nr != 0 { sum(cycles) by (fn) }";
    "sched:core >= 1 || cycles < 100 { avg(cycles) by (core) }";
    "instr { p(99.9, cycles) by (reason) }";
    "pool_acquire:!(reason == \"hit\") { count() by (reason) }";
    "block:pc >= 0x8000 { count() }; exit { max(cycles) }";
    "sup_attempt { min(nr) by (fn, reason) }";
    "idle:(cycles > 10 || nr == 0) && core < 4 { p(50, cycles) }";
  ]

let test_parse_round_trip () =
  List.iter
    (fun s ->
      let spec = parse_ok s in
      let printed = L.to_string spec in
      let spec2 = parse_ok printed in
      Alcotest.(check bool)
        (Printf.sprintf "reparse(%S) = parse: %s" s printed)
        true (spec = spec2);
      (* canonical form is a fixed point *)
      Alcotest.(check string) "printer is stable" printed (L.to_string spec2))
    round_trip_specs

let test_parse_aliases_canonicalize () =
  let spec = parse_ok "hypercall:hc_nr == 3 { count() by (trace) }" in
  match spec with
  | [ { L.pred = L.Cmp (L.Field f, L.Eq, _); action; _ } ] ->
      Alcotest.(check string) "hc_nr -> nr" "nr" f;
      Alcotest.(check (list string)) "trace -> trace_id" [ "trace_id" ] action.L.by
  | _ -> Alcotest.fail "unexpected AST shape"

let test_parse_rejections () =
  let bad =
    [
      ("nosuchsite { count() }", "unknown site");
      ("exit { count(cycles) }", "count takes an operand");
      ("exit { sum() }", "sum needs an operand");
      ("exit { sum(reason) }", "sum over a string field");
      ("exit:reason < \"x\" { count() }", "ordered compare on string field");
      ("exit { frob(cycles) }", "unknown aggregation");
      ("exit { count() by (nosuchfield) }", "unknown by field");
      ("exit { p(cycles) }", "p without quantile");
      ("exit { p(101, cycles) }", "quantile out of range");
      ("exit count() }", "missing brace");
      ("", "empty spec");
      ("exit { count() } garbage", "trailing tokens");
    ]
  in
  List.iter
    (fun (s, why) ->
      match L.parse s with
      | Ok _ -> Alcotest.failf "%S should fail (%s)" s why
      | Error _ -> ())
    bad

let test_parse_errors_carry_position () =
  match L.parse "exit { count() by (bogus) }" with
  | Ok _ -> Alcotest.fail "should fail"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions offset: %s" msg)
        true
        (String.length msg > 0
        && (String.sub msg 0 9 = "at offset" || String.length msg > 5))

(* ------------------------------------------------------------------ *)
(* Aggregation math                                                     *)
(* ------------------------------------------------------------------ *)

let feed agg vals =
  let a = A.create agg in
  List.iter (fun v -> ignore (A.observe a ~key:[ "k" ] v)) vals;
  match A.cells a with
  | [ (_, cell) ] -> A.value a cell
  | cs -> Alcotest.failf "expected one cell, got %d" (List.length cs)

let test_agg_basics () =
  let vals = [ 3L; 1L; 4L; 1L; 5L; 9L; 2L; 6L ] in
  Alcotest.(check (float 1e-9)) "count" 8.0 (feed L.Count vals);
  Alcotest.(check (float 1e-9)) "sum" 31.0 (feed L.Sum vals);
  Alcotest.(check (float 1e-9)) "min" 1.0 (feed L.Min vals);
  Alcotest.(check (float 1e-9)) "max" 9.0 (feed L.Max vals);
  Alcotest.(check (float 1e-9)) "avg" (31.0 /. 8.0) (feed L.Avg vals);
  Alcotest.(check (float 1e-9)) "hist reports n" 8.0 (feed L.Hist vals)

let test_agg_quantiles_match_stats () =
  let vals = [ 3L; 1L; 4L; 1L; 5L; 9L; 2L; 6L; 5L; 3L; 5L ] in
  let arr = Array.of_list (List.map Int64.to_float vals) in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g matches Stats.Descriptive" q)
        (Stats.Descriptive.percentile arr q)
        (feed (L.Quantile q) vals))
    [ 50.0; 90.0; 99.0; 99.9 ]

let test_agg_key_capacity () =
  let a = A.create ~key_capacity:2 L.Count in
  Alcotest.(check bool) "first key" true (A.observe a ~key:[ "a" ] 1L);
  Alcotest.(check bool) "second key" true (A.observe a ~key:[ "b" ] 1L);
  Alcotest.(check bool) "third key dropped" false (A.observe a ~key:[ "c" ] 1L);
  Alcotest.(check bool) "existing key still lands" true (A.observe a ~key:[ "a" ] 1L);
  Alcotest.(check (list (list string))) "the dropped key left no cell" [ [ "a" ]; [ "b" ] ]
    (List.map fst (A.cells a))

let test_agg_insertion_order () =
  let a = A.create L.Sum in
  List.iter
    (fun k -> ignore (A.observe a ~key:[ k ] 1L))
    [ "z"; "a"; "m"; "a"; "z" ];
  Alcotest.(check (list (list string)))
    "cells in first-insertion order"
    [ [ "z" ]; [ "a" ]; [ "m" ] ]
    (List.map fst (A.cells a))

(* ------------------------------------------------------------------ *)
(* Engine: firing, budget, rendering                                    *)
(* ------------------------------------------------------------------ *)

(* The drops an engine publishes into an attached registry *)
let drops m kind =
  Series.counter m ~labels:[ ("kind", kind) ] "vtrace_drops_total"

let test_engine_budget_drops () =
  let e = engine_ok ~budget:3 "exit { count() by (reason) }" in
  let m = Telemetry.Metrics.create () in
  E.set_metrics e (Some m);
  for _ = 1 to 10 do
    ignore (E.fire e (ctx ~reason:"hlt" "exit"))
  done;
  Alcotest.(check int) "three firings" 3 (E.fires e);
  Alcotest.(check int) "seven budget drops" 7 (drops m "budget");
  Alcotest.(check int) "no key drops" 0 (drops m "keys");
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "aggregate stops at the budget"
    [ ([ "hlt" ], 3.0) ]
    (E.values e ~probe:0)

let test_engine_key_capacity_drops () =
  let e = engine_ok ~key_capacity:2 "exit { count() by (nr) }" in
  let m = Telemetry.Metrics.create () in
  E.set_metrics e (Some m);
  for i = 1 to 5 do
    ignore (E.fire e (ctx ~nr:(Int64.of_int i) "exit"))
  done;
  Alcotest.(check int) "two keys fired" 2 (E.fires e);
  Alcotest.(check int) "three key drops" 3 (drops m "keys");
  Alcotest.(check int) "no budget drops" 0 (drops m "budget")

let test_engine_predicate_and_fn_substitution () =
  (* the KVM system the engine attaches to names the running payload:
     contexts fired without an fn carry it *)
  let e = engine_ok "exit:fn == \"fib\" { count() }" in
  let sys = Kvmsim.Kvm.open_dev () in
  Kvmsim.Kvm.set_probes sys (Some e);
  let fire ?fn () = Kvmsim.Kvm.fire sys ?fn ~reason:"" ~cycles:0 ~nr:0 "exit" in
  Kvmsim.Kvm.set_payload sys "fib";
  fire ();
  Kvmsim.Kvm.set_payload sys "other";
  fire ();
  (* an explicit fn in the context wins over the current payload *)
  fire ~fn:"fib" ();
  Alcotest.(check int) "two matched" 2 (E.fires e)

let test_engine_wants () =
  let e = engine_ok "block { count() }; exit { count() }" in
  Alcotest.(check bool) "wants block" true (E.wants e "block");
  Alcotest.(check bool) "wants exit" true (E.wants e "exit");
  Alcotest.(check bool) "does not want instr" false (E.wants e "instr")

let test_engine_render () =
  let e = engine_ok "exit { count() by (reason) }" in
  ignore (E.fire e (ctx ~reason:"hlt" "exit"));
  ignore (E.fire e (ctx ~reason:"hypercall" "exit"));
  ignore (E.fire e (ctx ~reason:"hypercall" "exit"));
  let r = E.render e in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "render contains %S" needle)
        true (contains_sub r needle))
    [ "vtrace probe 0"; "hlt"; "hypercall"; "fires=3" ]

let test_engine_export_metrics () =
  let e = engine_ok ~budget:1 "exit { count() by (reason) }" in
  ignore (E.fire e (ctx ~reason:"hlt" "exit"));
  ignore (E.fire e (ctx ~reason:"hlt" "exit"));
  let m = Telemetry.Metrics.create () in
  E.export e m;
  (match Telemetry.Metrics.find m "vtrace_exit_count{probe=0,reason=hlt}" with
  | Some (Telemetry.Metrics.Gauge g) ->
      Alcotest.(check (float 1e-9)) "gauge carries the aggregate" 1.0
        g.Telemetry.Metrics.g_value
  | _ -> Alcotest.fail "exported gauge missing");
  match Telemetry.Metrics.find m "vtrace_drops_total{kind=budget}" with
  | Some (Telemetry.Metrics.Counter c) ->
      Alcotest.(check int) "drop counter" 1 c.Telemetry.Metrics.c_value
  | _ -> Alcotest.fail "drop counter missing"

(* ------------------------------------------------------------------ *)
(* Sites: every probe point in the stack fires                          *)
(* ------------------------------------------------------------------ *)

let fib_image =
  Wasp.Image.of_asm_string ~name:"fib"
    {|
start:
  mov r1, 10
  call fib
  mov r1, r0
  mov r0, 0
  out 1, r0
  hlt
fib:
  cmp r1, 2
  jlt base
  push r1
  sub r1, 1
  call fib
  pop r1
  push r0
  sub r1, 2
  call fib
  pop r2
  add r0, r2
  ret
base:
  mov r0, r1
  ret
|}

let crash_image =
  Wasp.Image.of_asm_string ~name:"crash"
    {|
start:
  mov r1, 0x7ffffff0
  ld64 r0, [r1]
  hlt
|}

let values e ~probe = E.values e ~probe

let total e ~probe =
  List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (values e ~probe)

let test_sites_exit_hypercall_block () =
  let e =
    engine_ok
      "exit { count() by (reason) }; hypercall { count() by (reason) }; \
       hypercall_ret { count() by (reason) }; block { count() }"
  in
  let w = R.create ~seed:7 () in
  R.set_probes w (Some e);
  let r = R.run w fib_image () in
  Alcotest.(check int64) "guest unchanged" 55L r.R.return_value;
  (* the exit hypercall takes one "hypercall" VM exit *)
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "exit reasons" [ ([ "hypercall" ], 1.0) ] (values e ~probe:0);
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "hypercall enter" [ ([ "exit" ], 1.0) ] (values e ~probe:1);
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "hypercall return" [ ([ "exit" ], 1.0) ] (values e ~probe:2);
  Alcotest.(check bool)
    "superblock entries observed without interpretation" true
    (total e ~probe:3 > 10.0)

let test_site_instr () =
  let e = engine_ok "instr { sum(cycles) by (reason) }" in
  let w = R.create ~seed:7 () in
  R.set_probes w (Some e);
  let r = R.run w fib_image () in
  Alcotest.(check int64) "guest unchanged" 55L r.R.return_value;
  let per_op = values e ~probe:0 in
  Alcotest.(check bool) "several opcodes attributed" true (List.length per_op > 3);
  Alcotest.(check bool) "cycles attributed" true (total e ~probe:0 > 100.0)

let snap_policy = Wasp.Policy.of_list [ Wasp.Hc.snapshot ]

let snap_image =
  Wasp.Image.of_asm_string ~name:"snap"
    {|
  mov r10, 0
init:
  add r10, 1
  cmp r10, 1000
  jlt init
  mov r0, 6
  out 1, r0
  mov r1, 0
  ld64 r1, [r1]
  add r1, r10
  mov r0, 0
  out 1, r0
|}

let test_site_ept () =
  let e = engine_ok "ept { count() by (reason) }" in
  let w = R.create ~seed:7 ~reset:`Cow () in
  R.set_probes w (Some e);
  let r1 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"s" ~args:[ 1L ] () in
  let r2 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"s" ~args:[ 2L ] () in
  Alcotest.(check int64) "first run" 1001L r1.R.return_value;
  Alcotest.(check int64) "restored run" 1002L r2.R.return_value;
  let ept = (Kvmsim.Kvm.stats (R.kvm w)).Kvmsim.Kvm.ept_violations in
  Alcotest.(check bool) "cow breaks happened" true (ept > 0);
  Alcotest.(check (float 1e-9))
    "every cow break fired the probe" (float_of_int ept)
    (total e ~probe:0);
  Alcotest.(check (list (list string)))
    "reason is cow_break" [ [ "cow_break" ] ]
    (List.map fst (values e ~probe:0))

let test_site_inject () =
  let e = engine_ok "inject { count() by (reason) }" in
  let plan =
    match Cycles.Fault_plan.of_string "seed=0xC4405;spurious_exit=@0+2" with
    | Ok p -> p
    | Error m -> Alcotest.failf "plan: %s" m
  in
  let w = R.create ~seed:7 () in
  R.set_probes w (Some e);
  R.set_fault_plan w (Some plan);
  ignore (R.run w fib_image ());
  let injected = Cycles.Fault_plan.total_injected plan in
  Alcotest.(check bool) "plan fired" true (injected > 0);
  Alcotest.(check (float 1e-9))
    "every injection fired the probe" (float_of_int injected)
    (total e ~probe:0)

let test_sites_pool () =
  let e =
    engine_ok
      "pool_acquire { count() by (reason) }; pool_release { count() by \
       (reason) }; pool_evict { count() by (reason) }"
  in
  let sys = Kvmsim.Kvm.open_dev () in
  let pool = Wasp.Pool.create ~capacity:1 sys ~clean:Wasp.Pool.Sync in
  (* the pool fires through the engine attached to its system *)
  Kvmsim.Kvm.set_probes sys (Some e);
  let s1, hit1 = Wasp.Pool.acquire pool ~mem_size:0x10000 ~mode:Vm.Modes.Long in
  let s2, hit2 = Wasp.Pool.acquire pool ~mem_size:0x20000 ~mode:Vm.Modes.Long in
  Alcotest.(check bool) "both cold" false (hit1 || hit2);
  Wasp.Pool.release pool s1;
  Wasp.Pool.release pool s2;  (* shard over capacity: evicts the LRU *)
  let s3, hit3 = Wasp.Pool.acquire pool ~mem_size:0x20000 ~mode:Vm.Modes.Long in
  Alcotest.(check bool) "pool hit" true hit3;
  Wasp.Pool.release pool s3;
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "acquire reasons"
    [ ([ "miss" ], 2.0); ([ "hit" ], 1.0) ]
    (values e ~probe:0);
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "release reasons" [ ([ "sync" ], 3.0) ] (values e ~probe:1);
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "evictions" [ ([ "lru" ], 1.0) ] (values e ~probe:2)

let test_sites_supervisor () =
  let e =
    engine_ok
      "sup_attempt { count() by (fn, reason) }; sup_backoff { count() }; \
       sup_quarantine { count() by (reason) }"
  in
  let w = R.create ~seed:7 () in
  R.set_probes w (Some e);
  let config =
    {
      Wasp.Supervisor.default_config with
      Wasp.Supervisor.max_retries = 2;
      quarantine_threshold = 1;
    }
  in
  let s = Wasp.Supervisor.create ~config w in
  (match (Wasp.Supervisor.run s crash_image ()).Wasp.Supervisor.result with
  | Ok _ -> Alcotest.fail "crash image should fail"
  | Error _ -> ());
  (* quarantined now: the next run is rejected without an attempt *)
  (match (Wasp.Supervisor.run s crash_image ()).Wasp.Supervisor.result with
  | Ok _ -> Alcotest.fail "should be quarantined"
  | Error _ -> ());
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "three attempts, all faults"
    [ ([ "crash"; "fault" ], 3.0) ]
    (values e ~probe:0);
  Alcotest.(check (float 1e-9)) "two backoffs" 2.0 (total e ~probe:1);
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "quarantine enter then reject"
    [ ([ "enter" ], 1.0); ([ "reject" ], 1.0) ]
    (values e ~probe:2)

let test_site_gateway () =
  let e = engine_ok "gateway { count() by (fn, reason) }" in
  let w = R.create ~clean:`Async () in
  R.set_probes w (Some e);
  let platform = Serverless.Vespid.create w in
  let g = Serverless.Gateway.create platform in
  let post path body =
    Vhttp.Http.request_to_string (Vhttp.Http.make_request ~body "POST" path)
  in
  let shout =
    "function shout(d) { var s = \"\"; for (var i = 0; i < d.length; i++) { s \
     += String.fromCharCode(d[i]); } return s.toUpperCase(); }"
  in
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout));
  ignore (Serverless.Gateway.handle g (post "/invoke/ok" "hi"));
  ignore (Serverless.Gateway.handle g (post "/invoke/ghost" "x"));
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "gateway decisions"
    [ ([ "ok"; "ok" ], 1.0); ([ "ghost"; "not_found" ], 1.0) ]
    (values e ~probe:0)

let scheduler_spec = "sched { count() by (reason) }; steal { count() }; idle { sum(cycles) }"

let test_sites_scheduler () =
  (* round-robin placement at release 0 gives core 0 the heavy tasks:
     once core 1 has drained its light queue, it steals from core 0's.
     A single far-future task then forces an accounted idle window. *)
  let scenario sched clocks =
    for i = 0 to 9 do
      let cost = if i mod 2 = 0 then 1_000 else 10 in
      Dessim.Cores.submit sched (fun ~core -> Cycles.Clock.advance_int clocks.(core) cost)
    done;
    Dessim.Cores.submit sched ~at:10_000L (fun ~core ->
        Cycles.Clock.advance_int clocks.(core) 100);
    Dessim.Cores.run sched
  in
  let e = engine_ok scheduler_spec in
  (* the scheduler fires through the KVM system of its clocks, as
     Serverless.Loadgen.run_cores wires it *)
  let sys = Kvmsim.Kvm.open_dev ~cores:2 () in
  Kvmsim.Kvm.set_probes sys (Some e);
  let clocks = Array.init 2 (Kvmsim.Kvm.core_clock sys) in
  let sched =
    Dessim.Cores.create clocks ~probe:(fun ~core ~reason ~cycles ~nr site ->
        Kvmsim.Kvm.fire sys ~core ~reason ~cycles ~nr site)
  in
  scenario sched clocks;
  Alcotest.(check (float 1e-9))
    "every task observed" 11.0 (total e ~probe:0);
  Alcotest.(check bool)
    "local and stolen both seen" true
    (List.length (values e ~probe:0) = 2);
  Alcotest.(check (float 1e-9))
    "steal count matches scheduler stats"
    (float_of_int (Dessim.Cores.steals sched))
    (total e ~probe:1);
  Alcotest.(check bool) "steals happened" true (Dessim.Cores.steals sched > 0);
  Alcotest.(check bool) "idle cycles observed" true (total e ~probe:2 > 0.0);
  (* set_probes fires the same sites straight into an engine *)
  let direct = engine_ok scheduler_spec in
  let clocks = Array.init 2 (fun _ -> Cycles.Clock.create ()) in
  let sched = Dessim.Cores.create clocks in
  Dessim.Cores.set_probes sched (Some direct);
  scenario sched clocks;
  Alcotest.(check string) "set_probes: same tables" (E.render e) (E.render direct);
  (* run_cores wires the same sites to its runtime's engine *)
  let e = engine_ok scheduler_spec in
  let w = R.create ~seed:7 ~cores:2 () in
  R.set_probes w (Some e);
  let request () = ignore (R.run w fib_image ()) in
  let _, sched =
    Serverless.Loadgen.run_cores ~think_time_s:0.0005 ~runtime:w ~request
      ~profile:[ { Serverless.Loadgen.duration_s = 0.005; clients = 4 } ]
      ()
  in
  Alcotest.(check bool) "run_cores ran tasks" true (Dessim.Cores.executed sched > 0);
  Alcotest.(check (float 1e-9))
    "run_cores: every task observed"
    (float_of_int (Dessim.Cores.executed sched))
    (total e ~probe:0)

(* [Pool.build_prewarmed] fires pool_prewarm "build" and a handoff
   "take"; the acquire it serves fires pool_acquire "prewarm". *)
let test_sites_pool_prewarm () =
  let e =
    engine_ok "pool_prewarm { count() by (reason) }; pool_acquire { count() by (reason) }"
  in
  let sys = Kvmsim.Kvm.open_dev () in
  let pool = Wasp.Pool.create sys ~clean:Wasp.Pool.Sync in
  Kvmsim.Kvm.set_probes sys (Some e);
  Wasp.Pool.set_prewarm pool
    (Some { Wasp.Pool.pw_mem_size = 0x10000; pw_mode = Vm.Modes.Long; pw_target = 2 });
  Alcotest.(check bool) "idle cycles built shells" true
    (Wasp.Pool.prewarm_step pool ~core:0 ~budget:max_int > 0);
  let _shell, pooled = Wasp.Pool.acquire pool ~mem_size:0x10000 ~mode:Vm.Modes.Long in
  Alcotest.(check bool) "served pre-built" true pooled;
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "prewarm reasons"
    [ ([ "build" ], 3.0); ([ "take" ], 1.0) ]
    (values e ~probe:0);
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "acquire reason" [ ([ "prewarm" ], 1.0) ] (values e ~probe:1)

(* Minor words [f] allocates, net of what measuring [ignore] counts. *)
let minor_words f =
  let measure f =
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    f ();
    Gc.minor ();
    let s1 = Gc.quick_stat () in
    s1.minor_words -. s0.minor_words
  in
  measure f -. measure ignore

let test_unprobed_fires_allocate_nothing () =
  (* the KVM layer builds a context only for a site an attached probe
     names; the arguments here are immediates and constants, so every
     word counted would be one it built (17 a fire, before) *)
  let sys = Kvmsim.Kvm.open_dev () in
  Kvmsim.Kvm.set_probes sys (Some (engine_ok "exit { count() }"));
  let fires () =
    for i = 1 to 1_000 do
      Kvmsim.Kvm.fire sys ~reason:"sync" ~cycles:i ~nr:i "pool_release"
    done
  in
  Alcotest.(check (float 0.0)) "minor words for 1,000 unprobed fires" 0.0 (minor_words fires)

(* ------------------------------------------------------------------ *)
(* Determinism: attach vs detach, both block flavours                   *)
(* ------------------------------------------------------------------ *)

let run_fingerprint ~probes () =
  let w = R.create ~seed:42 () in
  (match probes with
  | Some spec -> R.set_probes w (Some (engine_ok spec))
  | None -> ());
  List.map
    (fun _ ->
      let r = R.run w fib_image () in
      (r.R.return_value, r.R.cycles, r.R.hypercalls, r.R.from_pool))
    [ 1; 2; 3 ]

let heavy_spec =
  "exit { count() by (reason) }; hypercall { hist(cycles) by (fn, nr) }; \
   hypercall_ret { p(99, cycles) by (fn) }; block { count() }; pool_acquire \
   { count() by (reason) }; pool_release { count() by (reason) }"

let instr_spec = "instr { sum(cycles) by (reason) }"

let check_parity msg base attached =
  let flat = List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) in
  Alcotest.(check (list (pair int64 (pair int64 (pair int bool)))))
    msg
    (flat (run_fingerprint ~probes:base ()))
    (flat (run_fingerprint ~probes:(Some attached) ()))

let test_attach_detach_parity_translated () =
  check_parity "identical results and cycles" None heavy_spec

let test_attach_detach_parity_hooked () =
  (* an instr probe keeps both runs on hooked blocks *)
  check_parity "identical results and cycles" (Some instr_spec)
    (instr_spec ^ "; " ^ heavy_spec)

let test_instr_probe_parity () =
  (* instruction probes switch to hooked blocks — still cycle-identical *)
  check_parity "stepping changes nothing observable" None instr_spec

let test_same_spec_same_tables () =
  let tables probes =
    let w = R.create ~seed:42 () in
    let e = engine_ok probes in
    R.set_probes w (Some e);
    ignore (R.run w fib_image ());
    ignore (R.run w fib_image ());
    E.render e
  in
  Alcotest.(check string)
    "byte-identical aggregate tables at a fixed seed"
    (tables heavy_spec) (tables heavy_spec)

let test_exit_probe_stamps_flight_ring () =
  let e = engine_ok "exit { count() }" in
  let w = R.create ~seed:7 () in
  R.set_probes w (Some e);
  ignore (R.run w fib_image ());
  let stamped =
    List.filter
      (fun en -> contains_sub (Format.asprintf "%a" Profiler.Flight.pp_entry en) "vtrace")
      (Profiler.Flight.entries (R.flight w))
  in
  Alcotest.(check bool) "matched exits annotated" true (stamped <> [])

let () =
  Alcotest.run "vtrace"
    [
      ( "lang",
        [
          Alcotest.test_case "round trips" `Quick test_parse_round_trip;
          Alcotest.test_case "aliases canonicalize" `Quick
            test_parse_aliases_canonicalize;
          Alcotest.test_case "rejections" `Quick test_parse_rejections;
          Alcotest.test_case "errors carry position" `Quick
            test_parse_errors_carry_position;
        ] );
      ( "agg",
        [
          Alcotest.test_case "basics" `Quick test_agg_basics;
          Alcotest.test_case "quantiles match Stats" `Quick
            test_agg_quantiles_match_stats;
          Alcotest.test_case "key capacity" `Quick test_agg_key_capacity;
          Alcotest.test_case "insertion order" `Quick test_agg_insertion_order;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget drops" `Quick test_engine_budget_drops;
          Alcotest.test_case "key-capacity drops" `Quick
            test_engine_key_capacity_drops;
          Alcotest.test_case "fn substitution" `Quick
            test_engine_predicate_and_fn_substitution;
          Alcotest.test_case "wants" `Quick test_engine_wants;
          Alcotest.test_case "render" `Quick test_engine_render;
          Alcotest.test_case "export to metrics" `Quick
            test_engine_export_metrics;
        ] );
      ( "sites",
        [
          Alcotest.test_case "exit/hypercall/block" `Quick
            test_sites_exit_hypercall_block;
          Alcotest.test_case "instr" `Quick test_site_instr;
          Alcotest.test_case "ept" `Quick test_site_ept;
          Alcotest.test_case "inject" `Quick test_site_inject;
          Alcotest.test_case "pool" `Quick test_sites_pool;
          Alcotest.test_case "supervisor" `Quick test_sites_supervisor;
          Alcotest.test_case "gateway" `Quick test_site_gateway;
          Alcotest.test_case "scheduler" `Quick test_sites_scheduler;
          Alcotest.test_case "pool prewarm" `Quick test_sites_pool_prewarm;
          Alcotest.test_case "allocation budget: unprobed fires" `Quick
            test_unprobed_fires_allocate_nothing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "attach/detach parity (translated)" `Quick
            test_attach_detach_parity_translated;
          Alcotest.test_case "attach/detach parity (hooked)" `Quick
            test_attach_detach_parity_hooked;
          Alcotest.test_case "instr probe parity" `Quick test_instr_probe_parity;
          Alcotest.test_case "same spec, same tables" `Quick
            test_same_spec_same_tables;
          Alcotest.test_case "exit probes stamp the flight ring" `Quick
            test_exit_probe_stamps_flight_ring;
        ] );
    ]
