(* Tests for the Vespid serverless platform, the container baseline, and
   the load generator. *)

let js_b64 = Vjs.Workload.base64_js_source

let test_vespid_invoke_correct () =
  let w = Wasp.Runtime.create () in
  let v = Serverless.Vespid.create w in
  Serverless.Vespid.register v ~name:"b64" ~source:js_b64 ~entry:"encode";
  let input = Vjs.Workload.make_input ~size:120 in
  match Serverless.Vespid.invoke v ~name:"b64" ~input with
  | Ok out ->
      Alcotest.(check string) "matches reference" (Vjs.Workload.reference_encode input) out
  | Error e -> Alcotest.fail e

let test_vespid_unknown_function () =
  let w = Wasp.Runtime.create () in
  let v = Serverless.Vespid.create w in
  match Serverless.Vespid.invoke v ~name:"nope" ~input:Bytes.empty with
  | exception Serverless.Vespid.Unknown_function "nope" -> ()
  | _ -> Alcotest.fail "expected Unknown_function"

let test_vespid_warm_faster_than_cold () =
  let w = Wasp.Runtime.create ~clean:`Async () in
  let v = Serverless.Vespid.create w in
  Serverless.Vespid.register v ~name:"b64" ~source:js_b64 ~entry:"encode";
  let input = Vjs.Workload.make_input ~size:120 in
  let _, cold = Serverless.Vespid.invoke_timed v ~name:"b64" ~input in
  let _, warm = Serverless.Vespid.invoke_timed v ~name:"b64" ~input in
  Alcotest.(check bool) (Printf.sprintf "warm %Ld < cold %Ld" warm cold) true (warm < cold)

let test_vespid_isolates_functions () =
  (* one function's JS error must not affect another's invocation *)
  let w = Wasp.Runtime.create () in
  let v = Serverless.Vespid.create w in
  Serverless.Vespid.register v ~name:"bad" ~source:"function boom(d) { return nonexistent(); }"
    ~entry:"boom";
  Serverless.Vespid.register v ~name:"b64" ~source:js_b64 ~entry:"encode";
  (match Serverless.Vespid.invoke v ~name:"bad" ~input:Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected JS error");
  let input = Vjs.Workload.make_input ~size:33 in
  match Serverless.Vespid.invoke v ~name:"b64" ~input with
  | Ok out -> Alcotest.(check string) "healthy" (Vjs.Workload.reference_encode input) out
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Exact simulated cycles of the JavaScript engine                      *)
(* ------------------------------------------------------------------ *)

(* (entry, source, [(payload bytes, (cold cycles, warm cycles))]):
   [Isolate.invoke] on a fresh runtime, first and second call. Recorded
   from the tree-walking evaluator; the benchmark figures round to 1 us,
   so a handful of missing 22-cycle node charges would pass them, but
   not these. *)
let pinned_invoke_cycles =
  [
    ( "encode",
      js_b64,
      [ (16, (802224L, 64474L)); (256, (933187L, 195413L)); (1024, (1352266L, 614418L)) ] );
    ( "checksum",
      Js_sources.checksum,
      [ (16, (790308L, 62817L)); (256, (901771L, 174275L)); (1024, (1258455L, 530941L)) ] );
    ( "range",
      Js_sources.range,
      [ (16, (795516L, 66360L)); (256, (949483L, 220322L)); (1024, (1441335L, 712156L)) ] );
  ]

let pinned_baseline_cycles_300 = 877858L

let test_invoke_cycles_pinned () =
  List.iter
    (fun (entry, source, pinned) ->
      let measured =
        List.map
          (fun (size, _) ->
            let w = Wasp.Runtime.create ~seed:1 ~clean:`Async () in
            let iso = Vjs.Isolate.create w ~key:entry ~source ~entry in
            let input = Vjs.Workload.make_input ~size in
            let invoke () =
              match Vjs.Isolate.invoke iso ~input with
              | Ok _, cycles -> cycles
              | Error e, _ -> Alcotest.failf "%s: %s" entry e
            in
            let cold = invoke () in
            (size, (cold, invoke ())))
          pinned
      in
      Alcotest.(check (list (pair int (pair int64 int64))))
        (entry ^ ": (bytes, (cold, warm))") pinned measured)
    pinned_invoke_cycles

let test_baseline_cycles_pinned () =
  let clock = Cycles.Clock.create () in
  let o = Vjs.Workload.run_baseline ~clock ~input:(Vjs.Workload.make_input ~size:300) in
  Alcotest.(check int64) "run_baseline, 300 bytes" pinned_baseline_cycles_300
    o.Vjs.Workload.latency_cycles

let test_vespid_registered () =
  let w = Wasp.Runtime.create () in
  let v = Serverless.Vespid.create w in
  Serverless.Vespid.register v ~name:"a" ~source:js_b64 ~entry:"encode";
  Serverless.Vespid.register v ~name:"b" ~source:js_b64 ~entry:"encode";
  Alcotest.(check (list string)) "registered" [ "a"; "b" ] (Serverless.Vespid.registered v)

(* ------------------------------------------------------------------ *)
(* Container baseline                                                   *)
(* ------------------------------------------------------------------ *)

let ow () =
  let clock = Cycles.Clock.create () in
  let t = Serverless.Openwhisk.create ~clock () in
  Serverless.Openwhisk.register t ~name:"b64" ~source:js_b64 ~entry:"encode";
  (t, clock)

let test_openwhisk_correct () =
  let t, _ = ow () in
  let input = Vjs.Workload.make_input ~size:90 in
  match Serverless.Openwhisk.invoke t ~now:0L ~name:"b64" ~input with
  | Ok out, _ ->
      Alcotest.(check string) "matches reference" (Vjs.Workload.reference_encode input) out
  | Error e, _ -> Alcotest.fail e

let test_openwhisk_cold_then_warm () =
  let t, clock = ow () in
  let input = Vjs.Workload.make_input ~size:90 in
  let _, cold = Serverless.Openwhisk.invoke t ~now:0L ~name:"b64" ~input in
  (* the container is busy until the first request completes *)
  let _, warm = Serverless.Openwhisk.invoke t ~now:(Int64.add cold 1000L) ~name:"b64" ~input in
  Alcotest.(check int) "one cold start" 1 (Serverless.Openwhisk.cold_starts t);
  Alcotest.(check int) "one warm hit" 1 (Serverless.Openwhisk.warm_hits t);
  let ms = Cycles.Clock.to_ms clock in
  Alcotest.(check bool)
    (Printf.sprintf "cold %.0fms >> warm %.1fms" (ms cold) (ms warm))
    true
    (Int64.to_float cold > 10.0 *. Int64.to_float warm);
  (* cold start is hundreds of milliseconds *)
  Alcotest.(check bool) "cold > 300ms" true (ms cold > 300.0)

let test_openwhisk_keepalive_expiry () =
  let t, _ = ow () in
  let input = Vjs.Workload.make_input ~size:10 in
  let _, first = Serverless.Openwhisk.invoke t ~now:0L ~name:"b64" ~input in
  (* past the keep-alive window: container reaped, cold again *)
  let long_after = Int64.add first (Int64.add Serverless.Openwhisk.keepalive_cycles 10_000_000L) in
  ignore (Serverless.Openwhisk.invoke t ~now:long_after ~name:"b64" ~input);
  Alcotest.(check int) "two cold starts" 2 (Serverless.Openwhisk.cold_starts t)

(* ------------------------------------------------------------------ *)
(* Load generator                                                       *)
(* ------------------------------------------------------------------ *)

let test_loadgen_buckets_cover_profile () =
  let buckets =
    Serverless.Loadgen.run
      ~service:(fun ~now:_ -> 2_690_000L (* 1 ms *))
      ~profile:[ { Serverless.Loadgen.duration_s = 2.0; clients = 2 } ]
      ()
  in
  Alcotest.(check bool) "at least 2 buckets" true (List.length buckets >= 2);
  let total = List.fold_left (fun a b -> a + b.Serverless.Loadgen.completed) 0 buckets in
  Alcotest.(check bool) (Printf.sprintf "completed %d > 0" total) true (total > 0)

let test_loadgen_more_clients_more_throughput () =
  let run clients =
    let buckets =
      Serverless.Loadgen.run
        ~service:(fun ~now:_ -> 2_690_000L)
        ~profile:[ { Serverless.Loadgen.duration_s = 3.0; clients } ]
        ()
    in
    List.fold_left (fun a b -> a + b.Serverless.Loadgen.completed) 0 buckets
  in
  let low = run 1 and high = run 8 in
  Alcotest.(check bool) (Printf.sprintf "%d < %d" low high) true (low < high)

let test_loadgen_slow_service_increases_latency () =
  let mean_latency service_cycles =
    let buckets =
      Serverless.Loadgen.run
        ~service:(fun ~now:_ -> service_cycles)
        ~profile:[ { Serverless.Loadgen.duration_s = 3.0; clients = 4 } ]
        ()
    in
    let vals = List.filter_map (fun b -> b.Serverless.Loadgen.mean_ms) buckets in
    Stats.Descriptive.mean (Array.of_list vals)
  in
  let fast = mean_latency 2_690_000L and slow = mean_latency 26_900_000L in
  Alcotest.(check bool) (Printf.sprintf "%.2fms < %.2fms" fast slow) true (fast < slow)

let test_loadgen_idle_bucket_has_no_latency () =
  (* a 1.5 s service means nothing completes inside the first one-second
     bucket; it must report [None], not a bogus latency from an empty
     sample set *)
  let buckets =
    Serverless.Loadgen.run
      ~service:(fun ~now:_ -> 4_035_000_000L)
      ~profile:[ { Serverless.Loadgen.duration_s = 2.0; clients = 2 } ]
      ()
  in
  (match buckets with
  | first :: _ ->
      Alcotest.(check int) "first bucket idle" 0 first.Serverless.Loadgen.completed;
      Alcotest.(check bool) "no mean" true (first.Serverless.Loadgen.mean_ms = None);
      Alcotest.(check bool) "no p99" true (first.Serverless.Loadgen.p99_ms = None)
  | [] -> Alcotest.fail "no buckets");
  Alcotest.(check bool) "later buckets do measure latency" true
    (List.exists (fun b -> b.Serverless.Loadgen.mean_ms <> None) buckets)

let test_bursty_profile_shape () =
  let p = Serverless.Loadgen.bursty_profile in
  Alcotest.(check int) "five phases" 5 (List.length p);
  let clients = List.map (fun ph -> ph.Serverless.Loadgen.clients) p in
  (match clients with
  | [ a; b; c; d; e ] ->
      Alcotest.(check bool) "two bursts" true (b > a && b > c && d > c && d > e)
  | _ -> Alcotest.fail "unexpected profile")

(* ------------------------------------------------------------------ *)
(* Gateway hardening: circuit breaker and load shedding                *)
(* ------------------------------------------------------------------ *)

let post path body =
  Vhttp.Http.request_to_string (Vhttp.Http.make_request ~body "POST" path)

let status_of raw =
  match Vhttp.Http.parse_response raw with
  | Ok r -> r.Vhttp.Http.status
  | Error e -> Alcotest.failf "bad response: %s" e

let shout_src =
  "function shout(d) { var s = \"\"; for (var i = 0; i < d.length; i++) { s += \
   String.fromCharCode(d[i]); } return s.toUpperCase(); }"

let boom_src = "function boom(d) { return nothing_here(); }"

let hardened_gateway ?shed () =
  let w = Wasp.Runtime.create ~clean:`Async () in
  let platform = Serverless.Vespid.create w in
  let breaker =
    { Serverless.Gateway.failure_threshold = 2; cooldown = 1_000L }
  in
  (w, Serverless.Gateway.create ~breaker ?shed platform)

let check_state msg expected g name =
  let to_s = function
    | Serverless.Gateway.Closed -> "closed"
    | Serverless.Gateway.Open -> "open"
    | Serverless.Gateway.Half_open -> "half-open"
  in
  Alcotest.(check string) msg (to_s expected)
    (to_s (Serverless.Gateway.breaker_state g ~name))

let test_breaker_opens_after_threshold () =
  let w, g = hardened_gateway () in
  ignore (Serverless.Gateway.handle g (post "/register/bad?entry=boom" boom_src));
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  check_state "fresh function is closed" Serverless.Gateway.Closed g "bad";
  Alcotest.(check int) "first failure" 500
    (status_of (Serverless.Gateway.handle g (post "/invoke/bad" "x")));
  check_state "one failure: still closed" Serverless.Gateway.Closed g "bad";
  Alcotest.(check int) "second failure" 500
    (status_of (Serverless.Gateway.handle g (post "/invoke/bad" "x")));
  check_state "threshold reached: open" Serverless.Gateway.Open g "bad";
  Alcotest.(check int) "open breaker refuses" 503
    (status_of (Serverless.Gateway.handle g (post "/invoke/bad" "x")));
  Alcotest.(check int) "rejection counted" 1 (Serverless.Gateway.breaker_rejections g);
  (* breakers are per function: the healthy one is unaffected *)
  check_state "other function closed" Serverless.Gateway.Closed g "ok";
  Alcotest.(check int) "other function serves" 200
    (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")));
  ignore w

let test_breaker_half_open_probe () =
  let w, g = hardened_gateway () in
  ignore (Serverless.Gateway.handle g (post "/register/bad?entry=boom" boom_src));
  ignore (Serverless.Gateway.handle g (post "/invoke/bad" "x"));
  ignore (Serverless.Gateway.handle g (post "/invoke/bad" "x"));
  check_state "open" Serverless.Gateway.Open g "bad";
  (* cooldown elapses on the virtual clock *)
  Cycles.Clock.advance_int (Wasp.Runtime.clock w) 2_000;
  check_state "cooldown elapsed: half-open" Serverless.Gateway.Half_open g "bad";
  (* the admitted probe fails: straight back to open, cooldown restarts *)
  Alcotest.(check int) "probe admitted and fails" 500
    (status_of (Serverless.Gateway.handle g (post "/invoke/bad" "x")));
  check_state "failed probe re-opens" Serverless.Gateway.Open g "bad";
  Alcotest.(check int) "refusing again" 503
    (status_of (Serverless.Gateway.handle g (post "/invoke/bad" "x")))

let test_breaker_closes_on_successful_probe () =
  let w, g = hardened_gateway () in
  (* fails on long payloads, succeeds on short ones *)
  let flaky_src =
    "function flaky(d) { if (d.length > 2) { return nothing_here(); } return \"ok\"; }"
  in
  ignore (Serverless.Gateway.handle g (post "/register/fn?entry=flaky" flaky_src));
  ignore (Serverless.Gateway.handle g (post "/invoke/fn" "looong"));
  ignore (Serverless.Gateway.handle g (post "/invoke/fn" "looong"));
  check_state "open" Serverless.Gateway.Open g "fn";
  Cycles.Clock.advance_int (Wasp.Runtime.clock w) 2_000;
  Alcotest.(check int) "successful probe" 200
    (status_of (Serverless.Gateway.handle g (post "/invoke/fn" "y")));
  check_state "success closes the breaker" Serverless.Gateway.Closed g "fn";
  Alcotest.(check int) "requests flow again" 200
    (status_of (Serverless.Gateway.handle g (post "/invoke/fn" "z")))

let test_stray_break_is_a_failed_invoke () =
  (* the parser rejects [break] outside a loop; the error surfaces at the
     first invoke, as a failure of that function alone *)
  let _, g = hardened_gateway () in
  Alcotest.(check int) "registration accepts the source" 201
    (status_of (Serverless.Gateway.handle g (post "/register/bad?entry=f" "function f(d) { break; }")));
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  Alcotest.(check int) "invoke fails" 500
    (status_of (Serverless.Gateway.handle g (post "/invoke/bad" "x")));
  Alcotest.(check int) "a healthy function still serves" 200
    (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")))

let test_heap_exhaustion_is_a_failed_invoke () =
  (* a 128 KB result, or a 100,000-byte input, does not fit the
     isolate's guest heap: each is that invoke's 500, and the faulted
     shell goes back to the pool like any other *)
  let w, g = hardened_gateway () in
  let huge_src =
    "function huge(d) { var s = \"x\"; for (var i = 0; i < 17; i++) { s = s + s; } \
     return s; }"
  in
  ignore (Serverless.Gateway.handle g (post "/register/huge?entry=huge" huge_src));
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  let status path body = status_of (Serverless.Gateway.handle g (post path body)) in
  Alcotest.(check int) "healthy invoke" 200 (status "/invoke/ok" "hi");
  (match Vhttp.Http.parse_response (Serverless.Gateway.handle g (post "/invoke/huge" "x")) with
  | Ok r ->
      Alcotest.(check int) "result past guest memory" 500 r.Vhttp.Http.status;
      Alcotest.(check bool)
        (Printf.sprintf "the error names the fault: %S" r.Vhttp.Http.resp_body)
        true
        (String.starts_with ~prefix:"function error: fault: memory fault"
           r.Vhttp.Http.resp_body)
  | Error e -> Alcotest.failf "bad response: %s" e);
  Alcotest.(check int) "input past guest memory" 500
    (status "/invoke/ok" (String.make 100_000 'a'));
  Alcotest.(check int) "still serving" 200 (status "/invoke/ok" "hi");
  Alcotest.(check int) "no shell leaked" 1
    (Kvmsim.Kvm.stats (Wasp.Runtime.kvm w)).Kvmsim.Kvm.vm_creations

(* JavaScript that would grow one array or string without bound: each
   program is its function's 500, and the gateway keeps serving *)
let test_hostile_js_is_a_failed_invoke () =
  let _, g = hardened_gateway () in
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  let status path body = status_of (Serverless.Gateway.handle g (post path body)) in
  List.iteri
    (fun i body ->
      let name = Printf.sprintf "grow%d" i in
      ignore (status (Printf.sprintf "/register/%s?entry=f" name) ("function f(d) { " ^ body ^ " }"));
      Alcotest.(check int) body 500 (status ("/invoke/" ^ name) "x");
      Alcotest.(check int) "still serving" 200 (status "/invoke/ok" "hi"))
    [
      "var a = []; a[67108864] = 1;";
      "var a = []; a[1099511627776] = 1;";
      "var c = [3]; c[(1 << -2)] = 1;";
      "var s = \"x\"; while (true) { s = s + s; }";
    ]

(* Names the platform does not know are answered 404 and leave nothing
   behind: neither invoking one nor reading its breaker stores a
   breaker. *)
let test_unknown_names_store_nothing () =
  let _, g = hardened_gateway () in
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  let status path = status_of (Serverless.Gateway.handle g (post path "x")) in
  Alcotest.(check int) "warm-up" 200 (status "/invoke/ok");
  Alcotest.(check int) "warm-up 404" 404 (status "/invoke/nope");
  Gc.full_major ();
  let before = Obj.reachable_words (Obj.repr g) in
  for i = 0 to 9_999 do
    let name = Printf.sprintf "nope%d" i in
    if status ("/invoke/" ^ name) <> 404 then Alcotest.failf "/invoke/%s did not 404" name;
    if Serverless.Gateway.breaker_state g ~name <> Closed then Alcotest.failf "%s not closed" name
  done;
  Gc.full_major ();
  let grown = Obj.reachable_words (Obj.repr g) - before in
  Alcotest.(check bool) (Printf.sprintf "%d words kept for 10,000 names" grown) true (grown < 512);
  Alcotest.(check int) "a registered function keeps serving" 200 (status "/invoke/ok")

let test_shed_accounting () =
  let shed = { Serverless.Gateway.burst = 3; refill_per_s = 2.0 } in
  let w, g = hardened_gateway ~shed () in
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  for i = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "burst request %d admitted" i)
      200
      (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")))
  done;
  Alcotest.(check int) "bucket empty: shed" 429
    (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")));
  Alcotest.(check int) "still empty: shed" 429
    (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")));
  Alcotest.(check int) "both sheds counted" 2 (Serverless.Gateway.shed_count g);
  (* ~1.1 virtual seconds at 2 tokens/s refills the bucket *)
  Cycles.Clock.advance_int (Wasp.Runtime.clock w) 3_000_000_000;
  Alcotest.(check int) "refilled: admitted again" 200
    (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")));
  Alcotest.(check int) "no further sheds" 2 (Serverless.Gateway.shed_count g)

(* Per-core clocks differ: a request served on a core behind the stamp
   another core left must not drain the bucket by the gap. *)
let test_shed_refills_only_forward () =
  let w = Wasp.Runtime.create ~cores:2 ~clean:`Async () in
  let shed = { Serverless.Gateway.burst = 10; refill_per_s = 1000.0 } in
  let g = Serverless.Gateway.create ~shed (Serverless.Vespid.create w) in
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  (* core 0 one virtual second ahead of core 1 *)
  Cycles.Clock.advance_int (Wasp.Runtime.core_clock w 0) 2_690_000_000;
  for i = 1 to 10 do
    Alcotest.(check int)
      (Printf.sprintf "request %d admitted" i)
      200
      (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")))
  done;
  Alcotest.(check int) "nothing shed" 0 (Serverless.Gateway.shed_count g)

(* Registering a name again replaces the function, under either reset:
   no answer comes from the old registration's snapshot. *)
let test_reregister_replaces () =
  List.iter
    (fun reset ->
      let w = Wasp.Runtime.create ~reset ~clean:`Async () in
      let g = Serverless.Gateway.create (Serverless.Vespid.create w) in
      let register word =
        Alcotest.(check int) "registered" 201
          (status_of
             (Serverless.Gateway.handle g
                (post "/register/f" (Printf.sprintf "function main(d) { return %S; }" word))))
      in
      let answer () =
        match Vhttp.Http.parse_response (Serverless.Gateway.handle g (post "/invoke/f" "x")) with
        | Ok r -> r.Vhttp.Http.resp_body
        | Error e -> Alcotest.failf "bad response: %s" e
      in
      register "one";
      Alcotest.(check string) "first" "one" (answer ());
      Alcotest.(check string) "first, warm" "one" (answer ());
      register "two";
      Alcotest.(check string) "replaced" "two" (answer ());
      Alcotest.(check string) "replaced, warm" "two" (answer ()))
    [ `Memcpy; `Cow ]

let test_shed_off_by_default () =
  let _, g = hardened_gateway () in
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  for _ = 1 to 10 do
    Alcotest.(check int) "never shed" 200
      (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")))
  done;
  Alcotest.(check int) "no sheds counted" 0 (Serverless.Gateway.shed_count g)

(* ------------------------------------------------------------------ *)
(* Gateway tracing and SLOs                                            *)
(* ------------------------------------------------------------------ *)

let traced_gateway ?(seed = 0xACE) ?shed () =
  let w = Wasp.Runtime.create ~seed ~clean:`Async () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  Telemetry.Hub.enable_tracing hub ~seed;
  let g = Serverless.Gateway.create ?shed (Serverless.Vespid.create w) in
  (w, hub, g)

let span_arg k (s : Telemetry.Span.span) = List.assoc_opt k s.Telemetry.Span.args

let test_gateway_trace_rooted_at_route () =
  let _, hub, g = traced_gateway () in
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  Telemetry.Hub.clear_spans hub;
  Alcotest.(check int) "invoke ok" 200
    (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")));
  let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
  let roots =
    List.filter (fun (s : Telemetry.Span.span) -> span_arg "parent_id" s = None) spans
  in
  (match roots with
  | [ r ] -> Alcotest.(check string) "root is the route span" "route" r.Telemetry.Span.name
  | l -> Alcotest.failf "expected exactly one root span, got %d" (List.length l));
  let root = List.hd roots in
  let trace = Option.get (span_arg "trace_id" root) in
  Alcotest.(check bool) "gateway, vespid and runtime share the trace" true
    (List.for_all (fun s -> span_arg "trace_id" s = Some trace) spans);
  (* the whole causal chain is retained: route -> invoke -> invocation
     -> provision -> pool_acquire, linked by parent ids *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span in trace") true
        (List.exists (fun (s : Telemetry.Span.span) -> s.Telemetry.Span.name = name) spans))
    [ "route"; "invoke"; "invocation"; "provision"; "pool_acquire" ]

let test_gateway_trace_ids_deterministic () =
  let run () =
    let _, hub, g = traced_gateway ~seed:11 () in
    ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
    ignore (Serverless.Gateway.handle g (post "/invoke/ok" "hi"));
    List.map
      (fun (s : Telemetry.Span.span) ->
        (s.name, span_arg "trace_id" s, span_arg "span_id" s, span_arg "parent_id" s))
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  Alcotest.(check bool) "same seed, byte-identical gateway traces" true (run () = run ())

let test_gateway_slo_recording () =
  let _, hub, g =
    traced_gateway ~shed:{ Serverless.Gateway.burst = 4; refill_per_s = 0.0001 } ()
  in
  ignore hub;
  Serverless.Gateway.enable_slos g ();
  let avail = Option.get (Serverless.Gateway.availability_slo g) in
  let lat = Option.get (Serverless.Gateway.latency_slo g) in
  ignore (Serverless.Gateway.handle g (post "/register/ok?entry=shout" shout_src));
  ignore (Serverless.Gateway.handle g (post "/register/bad?entry=boom" boom_src));
  (* 404 is the caller's mistake: no SLO event at all *)
  ignore (Serverless.Gateway.handle g (post "/invoke/nope" "x"));
  Alcotest.(check int) "404 not counted" 0
    (Telemetry.Slo.good_count avail + Telemetry.Slo.bad_count avail);
  (* success: good availability + a latency sample *)
  ignore (Serverless.Gateway.handle g (post "/invoke/ok" "hi"));
  Alcotest.(check int) "success is good" 1 (Telemetry.Slo.good_count avail);
  Alcotest.(check int) "success has a latency event" 1
    (Telemetry.Slo.good_count lat + Telemetry.Slo.bad_count lat);
  (* failure: bad availability, no latency sample *)
  ignore (Serverless.Gateway.handle g (post "/invoke/bad" "x"));
  Alcotest.(check int) "500 is bad" 1 (Telemetry.Slo.bad_count avail);
  Alcotest.(check int) "no latency for failures" 1
    (Telemetry.Slo.good_count lat + Telemetry.Slo.bad_count lat);
  (* exhaust the token bucket (the 404 probe burned a token too):
     sheds are bad availability *)
  ignore (Serverless.Gateway.handle g (post "/invoke/ok" "hi"));
  Alcotest.(check int) "shed" 429
    (status_of (Serverless.Gateway.handle g (post "/invoke/ok" "hi")));
  Alcotest.(check int) "shed is bad" 2 (Telemetry.Slo.bad_count avail);
  Alcotest.(check bool) "compliance reflects the mix" true
    (Telemetry.Slo.compliance avail < 1.0)

(* A function whose retained CoW shell lives on core 0, invoked when
   the round robin picks core 1 after core 0's clock ran 5M cycles
   ahead: the request runs on core 0, and so do the gateway's route span
   and Vespid's invoke span, which last exactly the invocation. *)
let test_gateway_spans_on_home_core () =
  let w = Wasp.Runtime.create ~seed:0xACE ~cores:2 ~reset:`Cow ~clean:`Async () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  let g = Serverless.Gateway.create (Serverless.Vespid.create w) in
  let status path body = status_of (Serverless.Gateway.handle g (post path body)) in
  ignore (status "/register/ok?entry=shout" shout_src);
  Alcotest.(check int) "cold invoke, served on core 0" 200 (status "/invoke/ok" "hi");
  Cycles.Clock.advance_int (Wasp.Runtime.core_clock w 0) 5_000_000;
  Telemetry.Hub.clear_spans hub;
  Alcotest.(check int) "warm invoke, round robin at core 1" 200 (status "/invoke/ok" "hi");
  let span name =
    List.find
      (fun (s : Telemetry.Span.span) -> s.name = name)
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  let invocation = span "invocation" in
  List.iter
    (fun name ->
      let s = span name in
      Alcotest.(check int) (name ^ " on the shell's home core") 0 s.Telemetry.Span.core;
      Alcotest.(check int64) (name ^ " = invocation cycles") invocation.Telemetry.Span.duration
        s.Telemetry.Span.duration)
    [ "route"; "invoke"; "invocation" ]

let test_gateway_slo_requires_hub () =
  let w = Wasp.Runtime.create ~clean:`Async () in
  let g = Serverless.Gateway.create (Serverless.Vespid.create w) in
  Alcotest.(check bool) "enable_slos without a hub rejected" true
    (match Serverless.Gateway.enable_slos g () with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "serverless"
    [
      ( "vespid",
        [
          Alcotest.test_case "invoke correct" `Quick test_vespid_invoke_correct;
          Alcotest.test_case "unknown function" `Quick test_vespid_unknown_function;
          Alcotest.test_case "warm faster" `Quick test_vespid_warm_faster_than_cold;
          Alcotest.test_case "isolates functions" `Quick test_vespid_isolates_functions;
          Alcotest.test_case "registered list" `Quick test_vespid_registered;
          Alcotest.test_case "invoke cycles pinned" `Quick test_invoke_cycles_pinned;
          Alcotest.test_case "baseline cycles pinned" `Quick test_baseline_cycles_pinned;
        ] );
      ( "openwhisk",
        [
          Alcotest.test_case "correct" `Quick test_openwhisk_correct;
          Alcotest.test_case "cold then warm" `Quick test_openwhisk_cold_then_warm;
          Alcotest.test_case "keepalive expiry" `Quick test_openwhisk_keepalive_expiry;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "buckets cover profile" `Quick test_loadgen_buckets_cover_profile;
          Alcotest.test_case "clients scale throughput" `Quick
            test_loadgen_more_clients_more_throughput;
          Alcotest.test_case "slow service slower" `Quick
            test_loadgen_slow_service_increases_latency;
          Alcotest.test_case "idle bucket has no latency" `Quick
            test_loadgen_idle_bucket_has_no_latency;
          Alcotest.test_case "bursty profile shape" `Quick test_bursty_profile_shape;
        ] );
      ( "gateway",
        [
          Alcotest.test_case "breaker opens after threshold" `Quick
            test_breaker_opens_after_threshold;
          Alcotest.test_case "half-open probe" `Quick test_breaker_half_open_probe;
          Alcotest.test_case "successful probe closes" `Quick
            test_breaker_closes_on_successful_probe;
          Alcotest.test_case "stray break fails the invoke" `Quick
            test_stray_break_is_a_failed_invoke;
          Alcotest.test_case "heap exhaustion fails the invoke" `Quick
            test_heap_exhaustion_is_a_failed_invoke;
          Alcotest.test_case "hostile JS fails the invoke" `Quick
            test_hostile_js_is_a_failed_invoke;
          Alcotest.test_case "unknown names store nothing" `Quick
            test_unknown_names_store_nothing;
          Alcotest.test_case "shed accounting" `Quick test_shed_accounting;
          Alcotest.test_case "shed off by default" `Quick test_shed_off_by_default;
          Alcotest.test_case "shed refills only forward" `Quick test_shed_refills_only_forward;
          Alcotest.test_case "re-registration replaces" `Quick test_reregister_replaces;
        ] );
      ( "tracing-slo",
        [
          Alcotest.test_case "trace rooted at route span" `Quick
            test_gateway_trace_rooted_at_route;
          Alcotest.test_case "trace ids deterministic" `Quick
            test_gateway_trace_ids_deterministic;
          Alcotest.test_case "slo recording" `Quick test_gateway_slo_recording;
          Alcotest.test_case "slo requires hub" `Quick test_gateway_slo_requires_hub;
          Alcotest.test_case "spans on the shell's home core" `Quick
            test_gateway_spans_on_home_core;
        ] );
    ]
