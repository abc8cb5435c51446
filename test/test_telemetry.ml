(* Telemetry subsystem tests: span/cycle attribution invariants,
   histogram percentile math, exporter well-formedness, determinism.

   The load-bearing invariant is phase tiling: the virtual clock only
   advances on explicit charges, and every charge in Runtime.run happens
   lexically inside a phase span, so the depth-1 phase spans of an
   invocation sum exactly to its end-to-end cycle count. *)

let demo_src = "mov r0, 0\nmov r1, 7\nout 1, r0\nhlt"

let demo_image () = Wasp.Image.of_asm_string ~name:"telemetry-demo" demo_src

let instrumented_run ?(seed = 0xACE) () =
  let w = Wasp.Runtime.create ~seed () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  let r = Wasp.Runtime.run w (demo_image ()) ~policy:Wasp.Policy.allow_all () in
  (w, hub, r)

let exited r =
  match r.Wasp.Runtime.outcome with
  | Wasp.Runtime.Exited _ -> true
  | _ -> false

(* --- span attribution ------------------------------------------------- *)

let test_root_span_equals_cycles () =
  let _, hub, r = instrumented_run () in
  Alcotest.(check bool) "run exited" true (exited r);
  let root =
    List.find
      (fun (s : Telemetry.Span.span) -> s.name = "invocation" && s.depth = 0)
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  Alcotest.(check int64) "root span duration = invocation cycles" r.Wasp.Runtime.cycles
    root.Telemetry.Span.duration

let test_phase_spans_tile_invocation () =
  let _, hub, r = instrumented_run () in
  let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
  let phase_sum =
    List.fold_left
      (fun acc (s : Telemetry.Span.span) ->
        if s.depth = 1 then Int64.add acc s.duration else acc)
      0L spans
  in
  Alcotest.(check int64) "depth-1 phase spans sum to end-to-end cycles"
    r.Wasp.Runtime.cycles phase_sum;
  let names = List.map (fun (s : Telemetry.Span.span) -> s.name) spans in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " span present") true (List.mem phase names))
    [ "invocation"; "provision"; "image_load"; "boot"; "marshal"; "execute"; "clean" ]

let test_snapshot_spans () =
  let w = Wasp.Runtime.create ~seed:0xACE () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  (* the guest must issue the snapshot hypercall for a capture to happen *)
  let img =
    Wasp.Image.of_asm_string ~name:"telemetry-snap"
      "mov r0, 6\nout 1, r0\nmov r1, 7\nmov r0, 0\nout 1, r0\nhlt"
  in
  let run () =
    Wasp.Runtime.run w img ~policy:Wasp.Policy.allow_all ~snapshot_key:"tele-snap" ()
  in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check bool) "first run not from snapshot" false r1.Wasp.Runtime.from_snapshot;
  Alcotest.(check bool) "second run from snapshot" true r2.Wasp.Runtime.from_snapshot;
  let names =
    List.map
      (fun (s : Telemetry.Span.span) -> s.name)
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  Alcotest.(check bool) "snapshot_capture span" true (List.mem "snapshot_capture" names);
  Alcotest.(check bool) "snapshot_restore span" true (List.mem "snapshot_restore" names);
  (* tiling holds per invocation even with snapshot phases in play *)
  let roots =
    List.filter
      (fun (s : Telemetry.Span.span) -> s.depth = 0 && s.name = "invocation")
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  Alcotest.(check int) "one root span per invocation" 2 (List.length roots)

let test_with_span_exception_safe () =
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:clk () in
  (try
     Telemetry.Hub.with_span hub "boom" (fun () ->
         Cycles.Clock.advance clk 10L;
         failwith "inner")
   with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 0
    (Telemetry.Span.depth (Telemetry.Hub.spans hub));
  match Telemetry.Span.spans (Telemetry.Hub.spans hub) with
  | [ s ] ->
      Alcotest.(check string) "name" "boom" s.Telemetry.Span.name;
      Alcotest.(check int64) "duration charged" 10L s.Telemetry.Span.duration
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_sink_capacity_drops () =
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~capacity:4 ~clock:clk () in
  for i = 1 to 10 do
    Telemetry.Hub.instant hub (Printf.sprintf "e%d" i)
  done;
  let sink = Telemetry.Hub.spans hub in
  Alcotest.(check int) "retained = capacity" 4 (Telemetry.Span.count sink);
  Alcotest.(check int) "dropped the rest" 6 (Telemetry.Span.dropped sink)

(* --- histogram math --------------------------------------------------- *)

let test_histogram_percentiles () =
  let reg = Telemetry.Metrics.create () in
  let h = Telemetry.Metrics.histogram reg "t" in
  List.iter (fun v -> Telemetry.Metrics.observe h v) [ 1L; 4L; 16L ];
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0 (Telemetry.Metrics.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 16.0
    (Telemetry.Metrics.percentile h 100.0);
  (* p50 target is sample 1.5 of 3: halfway through the second sample's
     bucket [4,8) -> interpolated 6.0 *)
  Alcotest.(check (float 1e-9)) "p50 interpolates in crossing bucket" 6.0
    (Telemetry.Metrics.percentile h 50.0)

let test_histogram_constant_exact () =
  let reg = Telemetry.Metrics.create () in
  let h = Telemetry.Metrics.histogram reg "t" in
  for _ = 1 to 100 do
    Telemetry.Metrics.observe h 10L
  done;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g of constant input" p)
        10.0
        (Telemetry.Metrics.percentile h p))
    [ 1.0; 50.0; 90.0; 99.0 ]

let test_bucket_index () =
  let idx = Telemetry.Metrics.bucket_index in
  Alcotest.(check int) "0 -> bucket 0" 0 (idx 0L);
  Alcotest.(check int) "1 -> bucket 1" 1 (idx 1L);
  Alcotest.(check int) "2 -> bucket 2" 2 (idx 2L);
  Alcotest.(check int) "3 -> bucket 2" 2 (idx 3L);
  Alcotest.(check int) "4 -> bucket 3" 3 (idx 4L);
  Alcotest.(check int) "1023 -> bucket 10" 10 (idx 1023L);
  Alcotest.(check int) "1024 -> bucket 11" 11 (idx 1024L);
  Alcotest.(check bool) "huge value stays in range" true (idx Int64.max_int < 63);
  (* bounds are consistent with the index *)
  List.iter
    (fun v ->
      let i = idx v in
      let lo, hi = Telemetry.Metrics.bucket_bounds i in
      Alcotest.(check bool)
        (Printf.sprintf "%Ld within its bucket bounds" v)
        true
        (lo <= v && v < hi))
    [ 0L; 1L; 2L; 7L; 8L; 1000L; 123456L ]

let test_registry_kind_mismatch () =
  let reg = Telemetry.Metrics.create () in
  ignore (Telemetry.Metrics.counter reg "m");
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Metrics.gauge: m is not a gauge") (fun () ->
      ignore (Telemetry.Metrics.gauge reg "m"))

let test_bad_samples_rejected () =
  let reg = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter reg "good_total" in
  Telemetry.Metrics.incr ~by:3 c;
  Telemetry.Metrics.incr ~by:(-5) c;
  Alcotest.(check int) "counter stays monotone" 3 c.Telemetry.Metrics.c_value;
  let g = Telemetry.Metrics.gauge reg "level" in
  Telemetry.Metrics.set g 2.5;
  Telemetry.Metrics.set g Float.nan;
  Alcotest.(check (float 1e-9)) "gauge keeps last good value" 2.5
    g.Telemetry.Metrics.g_value;
  let h = Telemetry.Metrics.histogram reg "lat" in
  Telemetry.Metrics.observe h (-7L);
  Alcotest.(check int) "negative observation still counted" 1
    h.Telemetry.Metrics.h_count;
  Alcotest.(check int64) "negative observation clamps to zero" 0L
    h.Telemetry.Metrics.h_sum;
  Alcotest.(check int) "every rejection tallied" 3
    (Telemetry.Metrics.bad_samples reg)

let test_bad_samples_counter_lazy () =
  let reg = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter reg "clean_total" in
  Telemetry.Metrics.incr c;
  Alcotest.(check bool) "no bad-sample series on a clean registry" true
    (Telemetry.Metrics.find reg "telemetry_bad_samples_total" = None);
  Telemetry.Metrics.incr ~by:(-1) c;
  (match Telemetry.Metrics.find reg "telemetry_bad_samples_total" with
  | Some (Telemetry.Metrics.Counter bad) ->
      Alcotest.(check int) "materializes after first rejection" 1
        bad.Telemetry.Metrics.c_value
  | _ -> Alcotest.fail "telemetry_bad_samples_total missing after rejection");
  let text = Telemetry.Prometheus.to_text reg in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "exposition carries the tally" true
    (contains "telemetry_bad_samples_total 1")

(* --- exporters -------------------------------------------------------- *)

let test_chrome_json_parses () =
  let _, hub, _ = instrumented_run () in
  let json = Telemetry.Chrome.to_json hub in
  match Vjs.Json.parse json with
  | Vjs.Jsvalue.Obj tbl -> (
      match Hashtbl.find_opt tbl "traceEvents" with
      | Some (Vjs.Jsvalue.Arr v) ->
          let events = Vjs.Jsvalue.vec_to_list v in
          Alcotest.(check bool) "non-empty traceEvents" true (events <> []);
          let has_phase ph =
            List.exists
              (function
                | Vjs.Jsvalue.Obj o -> (
                    match Hashtbl.find_opt o "ph" with
                    | Some (Vjs.Jsvalue.Str s) -> s = ph
                    | _ -> false)
                | _ -> false)
              events
          in
          Alcotest.(check bool) "has complete events" true (has_phase "X");
          Alcotest.(check bool) "has metadata event" true (has_phase "M")
      | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "chrome export is not a JSON object"

let test_chrome_json_deterministic () =
  let _, hub1, _ = instrumented_run ~seed:0xACE () in
  let _, hub2, _ = instrumented_run ~seed:0xACE () in
  Alcotest.(check string) "same seed => byte-identical trace JSON"
    (Telemetry.Chrome.to_json hub1) (Telemetry.Chrome.to_json hub2);
  let _, hub3, _ = instrumented_run ~seed:0xBEEF () in
  Alcotest.(check bool) "different seed => different trace" true
    (Telemetry.Chrome.to_json hub1 <> Telemetry.Chrome.to_json hub3)

let test_prometheus_text () =
  let _, hub, r = instrumented_run () in
  let text = Telemetry.Prometheus.to_text (Telemetry.Hub.metrics hub) in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "invocations counter" true (contains "wasp_invocations_total 1");
  Alcotest.(check bool) "histogram count line" true (contains "wasp_invocation_cycles_count 1");
  Alcotest.(check bool) "histogram sum line" true
    (contains (Printf.sprintf "wasp_invocation_cycles_sum %Ld" r.Wasp.Runtime.cycles));
  Alcotest.(check bool) "+Inf bucket" true (contains {|_bucket{le="+Inf"} 1|})

let test_prometheus_label_escaping () =
  let reg = Telemetry.Metrics.create () in
  let c =
    Telemetry.Metrics.counter reg ~help:"tricky \\ values"
      ~labels:[ ("fn", "a\\b\"c\nd") ] "escape_test_total"
  in
  Telemetry.Metrics.incr c;
  let plain = Telemetry.Metrics.counter reg "escape_test_total" in
  Telemetry.Metrics.incr ~by:2 plain;
  let text = Telemetry.Prometheus.to_text reg in
  let contains sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  (* label values escape backslash, double-quote and newline *)
  Alcotest.(check bool) "label value escaped" true
    (contains {|escape_test_total{fn="a\\b\"c\nd"} 1|});
  Alcotest.(check bool) "bare series coexists" true (contains "escape_test_total 2");
  (* HELP/TYPE emitted once per family even with two series *)
  let count sub =
    let n = String.length sub and m = String.length text in
    let rec go i acc =
      if i + n > m then acc
      else if String.sub text i n = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one HELP per family" 1 (count "# HELP escape_test_total");
  Alcotest.(check int) "one TYPE per family" 1 (count "# TYPE escape_test_total")

let test_chrome_per_core_tids () =
  let clock = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock () in
  let charge n = Cycles.Clock.advance_int clock n in
  Telemetry.Hub.set_core hub 0;
  Telemetry.Hub.with_span hub "execute" (fun () -> charge 10);
  Telemetry.Hub.set_core hub 2;
  Telemetry.Hub.with_span hub "execute" (fun () -> charge 20);
  let json = Telemetry.Chrome.to_json hub in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  (* each core is its own thread track, named via thread_name metadata *)
  Alcotest.(check bool) "core 0 slice on tid 1" true (contains {|"tid":1|});
  Alcotest.(check bool) "core 2 slice on tid 3" true (contains {|"tid":3|});
  Alcotest.(check bool) "core 0 track named" true (contains {|"core 0"|});
  Alcotest.(check bool) "core 2 track named" true (contains {|"core 2"|});
  Alcotest.(check bool) "no track for unused core" false (contains {|"core 1"|})

let test_summary_renders () =
  let _, hub, _ = instrumented_run () in
  let s = Telemetry.Summary.render hub in
  List.iter
    (fun needle ->
      let n = String.length needle and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
      Alcotest.(check bool) ("summary mentions " ^ needle) true (go 0))
    [ "invocation"; "provision"; "boot"; "execute"; "clean"; "% wall" ]

let test_percentile_table_renders () =
  let out =
    Stats.Report.percentile_table ~unit_label:"us"
      [ ("arm", [| 1.0; 2.0; 3.0; 4.0 |]); ("empty", [||]) ]
  in
  let contains sub =
    let n = String.length sub and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "p50 header" true (contains "p50 (us)");
  Alcotest.(check bool) "empty row dashes" true (contains "-")

(* --- one attach point --------------------------------------------------- *)

let test_span_stamps_monotone () =
  let _, hub, _ = instrumented_run () in
  let starts =
    List.map
      (fun (s : Telemetry.Span.span) -> s.start_cycles)
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  Alcotest.(check bool) "spans recorded" true (starts <> []);
  let rec monotone = function a :: (b :: _ as rest) -> a <= b && monotone rest | _ -> true in
  Alcotest.(check bool) "span stamps are monotone" true (monotone starts)

(* One Runtime.set_telemetry reaches every layer: the pool, the snapshot
   store (published by the runtime) and the KVM layer all feed the same
   registry, because the hub lives only on the KVM system. *)
let test_one_attach_point () =
  let w = Wasp.Runtime.create ~seed:0xACE () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  Alcotest.(check bool) "the runtime's hub is the system's" true
    (match Kvmsim.Kvm.telemetry (Wasp.Runtime.kvm w) with
    | Some h -> h == hub
    | None -> false);
  let img =
    Wasp.Image.of_asm_string ~name:"attach-snap" "mov r0, 6\nout 1, r0\nmov r0, 0\nout 1, r0"
  in
  ignore (Wasp.Runtime.run w img ~policy:Wasp.Policy.allow_all ~snapshot_key:"k" ());
  let reg = Telemetry.Hub.metrics hub in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Telemetry.Metrics.find reg name <> None))
    [
      "wasp_pool_misses_total";
      "wasp_snapshot_store_entries";
      "wasp_snapshot_store_bytes";
      "kvm_runs_total";
      "kvm_vm_creations_total";
    ];
  Wasp.Runtime.set_telemetry w None;
  Alcotest.(check bool) "detach reaches the system" true
    (Kvmsim.Kvm.telemetry (Wasp.Runtime.kvm w) = None)

(* --- pool + kvm metrics ----------------------------------------------- *)

let test_pool_and_kvm_metrics () =
  let w = Wasp.Runtime.create ~seed:0xACE () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  let img = demo_image () in
  ignore (Wasp.Runtime.run w img ~policy:Wasp.Policy.allow_all ());
  ignore (Wasp.Runtime.run w img ~policy:Wasp.Policy.allow_all ());
  let reg = Telemetry.Hub.metrics hub in
  let counter_value name =
    match Telemetry.Metrics.find reg name with
    | Some (Telemetry.Metrics.Counter c) -> c.Telemetry.Metrics.c_value
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "one pool miss (cold)" 1 (counter_value "wasp_pool_misses_total");
  Alcotest.(check int) "one pool hit (warm)" 1 (counter_value "wasp_pool_hits_total");
  Alcotest.(check int) "one VM created" 1 (counter_value "kvm_vm_creations_total");
  Alcotest.(check int) "two invocations" 2 (counter_value "wasp_invocations_total");
  Alcotest.(check bool) "vcpu_run spans recorded" true
    (List.exists
       (fun (s : Telemetry.Span.span) -> s.name = "vcpu_run")
       (Telemetry.Span.spans (Telemetry.Hub.spans hub)))

(* --- paged-memory gauges ---------------------------------------------- *)

let test_memory_gauges () =
  let w = Wasp.Runtime.create ~seed:0xACE () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  ignore (Wasp.Runtime.run w (demo_image ()) ~policy:Wasp.Policy.allow_all ());
  let reg = Telemetry.Hub.metrics hub in
  let gauge name =
    match Telemetry.Metrics.find reg name with
    | Some (Telemetry.Metrics.Gauge g) -> g.Telemetry.Metrics.g_value
    | _ -> Alcotest.failf "missing gauge %s" name
  in
  (* a 64 KB guest that ran an image holds a handful of private pages —
     far fewer than the 16 a flat store would pin *)
  Alcotest.(check bool) "resident pages reported" true
    (gauge "wasp_mem_resident_pages" > 0. && gauge "wasp_mem_resident_pages" < 16.);
  Alcotest.(check bool) "resident bytes consistent" true
    (gauge "wasp_mem_resident_bytes"
    = gauge "wasp_mem_resident_pages" *. float_of_int Vm.Memory.page_size);
  ignore (gauge "wasp_mem_shared_pages");
  ignore (gauge "vm_page_cache_entries");
  ignore (gauge "vm_page_cache_bytes")

(* --- trace context (causal request tracing) --------------------------- *)

let contains hay sub =
  let n = String.length sub and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let traced_run ?(seed = 0xACE) () =
  let w = Wasp.Runtime.create ~seed () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  Telemetry.Hub.enable_tracing hub ~seed;
  let r = Wasp.Runtime.run w (demo_image ()) ~policy:Wasp.Policy.allow_all () in
  (w, hub, r)

let arg k (s : Telemetry.Span.span) = List.assoc_opt k s.Telemetry.Span.args

let test_trace_tree () =
  let _, hub, r = traced_run () in
  Alcotest.(check bool) "run exited" true (exited r);
  let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
  Alcotest.(check bool) "every span has trace+span ids" true
    (List.for_all (fun s -> arg "trace_id" s <> None && arg "span_id" s <> None) spans);
  let root =
    List.find (fun (s : Telemetry.Span.span) -> s.name = "invocation" && s.depth = 0) spans
  in
  Alcotest.(check bool) "root has no parent" true (arg "parent_id" root = None);
  let trace = Option.get (arg "trace_id" root) in
  Alcotest.(check bool) "one trace spans the whole invocation" true
    (List.for_all (fun s -> arg "trace_id" s = Some trace) spans);
  (* parent links resolve to a retained span of the same trace *)
  let sids = List.filter_map (arg "span_id") spans in
  Alcotest.(check bool) "span ids unique" true
    (List.length sids = List.length (List.sort_uniq compare sids));
  List.iter
    (fun s ->
      match arg "parent_id" s with
      | None -> ()
      | Some pid ->
          Alcotest.(check bool)
            (Printf.sprintf "parent of %s retained" s.Telemetry.Span.name)
            true (List.mem pid sids))
    spans;
  (* conservation via parent links: the root's direct children tile it *)
  let rid = Option.get (arg "span_id" root) in
  let child_sum =
    List.fold_left
      (fun acc s ->
        if arg "parent_id" s = Some rid then Int64.add acc s.Telemetry.Span.duration
        else acc)
      0L spans
  in
  Alcotest.(check int64) "children tile the root exactly" root.Telemetry.Span.duration
    child_sum

let test_trace_ids_deterministic () =
  let shape hub =
    List.map
      (fun (s : Telemetry.Span.span) ->
        (s.name, arg "trace_id" s, arg "span_id" s, arg "parent_id" s))
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  let _, h1, _ = traced_run ~seed:7 () in
  let _, h2, _ = traced_run ~seed:7 () in
  let _, h3, _ = traced_run ~seed:8 () in
  Alcotest.(check bool) "same seed, byte-identical ids" true (shape h1 = shape h2);
  Alcotest.(check bool) "different seed, different ids" true (shape h1 <> shape h3)

let test_instants_stamped () =
  let _, hub, _ = traced_run () in
  let instants =
    List.filter_map
      (function
        | Telemetry.Span.Instant { i_name; i_args; _ } -> Some (i_name, i_args)
        | Telemetry.Span.Complete _ -> None)
      (Telemetry.Span.items (Telemetry.Hub.spans hub))
  in
  match List.assoc_opt "pool_miss" instants with
  | None -> Alcotest.fail "expected a pool_miss instant"
  | Some args ->
      Alcotest.(check bool) "instant carries the active trace id" true
        (List.mem_assoc "trace_id" args)

let test_prometheus_exemplar () =
  let _, hub, r = traced_run () in
  let text = Telemetry.Prometheus.to_text (Telemetry.Hub.metrics hub) in
  Alcotest.(check bool) "an exemplar suffix is rendered" true
    (contains text " # {trace_id=\"");
  (* the invocation histogram's exemplar resolves to the run's trace *)
  let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
  let root =
    List.find (fun (s : Telemetry.Span.span) -> s.name = "invocation" && s.depth = 0) spans
  in
  let trace = Option.get (arg "trace_id" root) in
  (match Telemetry.Metrics.find (Telemetry.Hub.metrics hub) "wasp_invocation_cycles" with
  | Some (Telemetry.Metrics.Histogram h) -> (
      match Telemetry.Metrics.bucket_exemplars h with
      | [ (_, e) ] ->
          Alcotest.(check string) "exemplar trace = invocation trace" trace
            e.Telemetry.Metrics.e_trace;
          Alcotest.(check int64) "exemplar value = invocation cycles"
            r.Wasp.Runtime.cycles e.Telemetry.Metrics.e_value
      | l -> Alcotest.failf "expected 1 exemplar, got %d" (List.length l))
  | _ -> Alcotest.fail "missing wasp_invocation_cycles");
  (* +Inf stays exemplar-free, per OpenMetrics practice for the closing bucket *)
  Alcotest.(check bool) "+Inf bucket has no exemplar" false
    (contains text "le=\"+Inf\"} 1 #")

let test_labeled_histogram_export () =
  let reg = Telemetry.Metrics.create () in
  let ha = Telemetry.Metrics.histogram reg ~labels:[ ("fn", "alpha") ] "invoke_cycles" in
  let hb = Telemetry.Metrics.histogram reg ~labels:[ ("fn", "beta") ] "invoke_cycles" in
  Telemetry.Metrics.observe ha 3L;
  Telemetry.Metrics.observe ha 3L;
  Telemetry.Metrics.observe hb 100L;
  Alcotest.(check bool) "series are independent" true
    (ha.Telemetry.Metrics.h_count = 2 && hb.Telemetry.Metrics.h_count = 1);
  let text = Telemetry.Prometheus.to_text reg in
  Alcotest.(check bool) "family labels merged with le" true
    (contains text "invoke_cycles_bucket{fn=\"alpha\",le=\"4\"} 2");
  Alcotest.(check bool) "sum carries family labels" true
    (contains text "invoke_cycles_sum{fn=\"alpha\"} 6");
  Alcotest.(check bool) "count carries family labels" true
    (contains text "invoke_cycles_count{fn=\"beta\"} 1")

let test_registry_order_stable () =
  let reg = Telemetry.Metrics.create () in
  ignore (Telemetry.Metrics.counter reg "zeta");
  ignore (Telemetry.Metrics.histogram reg ~labels:[ ("fn", "a") ] "hist");
  ignore (Telemetry.Metrics.gauge reg "alpha");
  (* re-registration must not reorder *)
  ignore (Telemetry.Metrics.counter reg "zeta");
  ignore (Telemetry.Metrics.gauge reg "alpha");
  ignore (Telemetry.Metrics.histogram reg ~labels:[ ("fn", "a") ] "hist");
  let names =
    List.map
      (function
        | Telemetry.Metrics.Counter c -> c.Telemetry.Metrics.c_name
        | Telemetry.Metrics.Gauge g -> g.Telemetry.Metrics.g_name
        | Telemetry.Metrics.Histogram h -> h.Telemetry.Metrics.h_name)
      (Telemetry.Metrics.to_list reg)
  in
  Alcotest.(check (list string)) "stable first-registration order"
    [ "zeta"; "hist"; "alpha" ] names

let test_chrome_flow_events () =
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:clk () in
  Telemetry.Hub.enable_tracing hub ~seed:42;
  (* parent on core 0, child on core 1: a cross-core causal edge *)
  Telemetry.Hub.enter hub "dispatch";
  Cycles.Clock.advance clk 10L;
  Telemetry.Hub.set_core hub 1;
  Telemetry.Hub.with_span hub "work" (fun () -> Cycles.Clock.advance clk 5L);
  Telemetry.Hub.set_core hub 0;
  Telemetry.Hub.leave hub ();
  let json = Telemetry.Chrome.to_json hub in
  Alcotest.(check bool) "flow start event" true (contains json "\"ph\":\"s\"");
  Alcotest.(check bool) "flow finish event" true (contains json "\"ph\":\"f\"");
  Alcotest.(check bool) "flow category" true (contains json "\"cat\":\"wasp.flow\"")

(* --- SLO burn-rate engine --------------------------------------------- *)

let test_slo_fire_and_clear () =
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:clk () in
  let slo =
    Telemetry.Slo.create ~hub ~name:"t" ~target:0.9
      ~rules:
        [
          {
            Telemetry.Slo.rule_name = "only";
            long_window = 1_000L;
            short_window = 100L;
            burn_threshold = 2.0;
          };
        ]
      ~period:10_000L ()
  in
  (* all-good traffic: no alert *)
  for _ = 1 to 10 do
    Cycles.Clock.advance clk 10L;
    Telemetry.Slo.record slo ~good:true
  done;
  Alcotest.(check bool) "quiet under good traffic" false (Telemetry.Slo.alerting slo);
  (* a bad burst: burn = 1.0 / 0.1 = 10x in both windows *)
  for _ = 1 to 10 do
    Cycles.Clock.advance clk 10L;
    Telemetry.Slo.record slo ~good:false
  done;
  Alcotest.(check bool) "alert fires during the burst" true (Telemetry.Slo.alerting slo);
  Alcotest.(check int) "one firing transition" 1 (Telemetry.Slo.alerts_fired slo);
  Alcotest.(check bool) "peak burn recorded" true (Telemetry.Slo.peak_burn slo >= 2.0);
  (* clean traffic refills the short window; the alert clears *)
  for _ = 1 to 30 do
    Cycles.Clock.advance clk 10L;
    Telemetry.Slo.record slo ~good:true
  done;
  Alcotest.(check bool) "alert clears after recovery" false (Telemetry.Slo.alerting slo);
  Alcotest.(check int) "one cleared transition" 1 (Telemetry.Slo.alerts_cleared slo);
  (* transitions left instants in the span stream *)
  let states =
    List.filter_map
      (function
        | Telemetry.Span.Instant { i_name = "slo_alert"; i_args; _ } ->
            List.assoc_opt "state" i_args
        | _ -> None)
      (Telemetry.Span.items (Telemetry.Hub.spans hub))
  in
  Alcotest.(check (list string)) "firing then cleared" [ "firing"; "cleared" ] states;
  (* gauges exported under (slo, rule) labels *)
  let g =
    Telemetry.Metrics.gauge (Telemetry.Hub.metrics hub)
      ~labels:[ ("slo", "t"); ("rule", "only") ]
      "slo_alert_active"
  in
  Alcotest.(check (float 1e-9)) "alert gauge cleared" 0.0 g.Telemetry.Metrics.g_value

let test_slo_latency_objective () =
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:clk () in
  let slo =
    Telemetry.Slo.create ~hub ~name:"lat" ~objective:(Telemetry.Slo.Latency_under 100L)
      ~target:0.99 ~period:1_000_000L ()
  in
  Cycles.Clock.advance clk 10L;
  Telemetry.Slo.record_latency slo 50L;
  Telemetry.Slo.record_latency slo 200L;
  Alcotest.(check int) "under threshold is good" 1 (Telemetry.Slo.good_count slo);
  Alcotest.(check int) "over threshold is bad" 1 (Telemetry.Slo.bad_count slo);
  Alcotest.(check bool) "availability objective rejects record_latency" true
    (match
       Telemetry.Slo.record_latency
         (Telemetry.Slo.create ~hub ~name:"avail" ~target:0.5 ~period:1_000L ())
         1L
     with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_percentile_table_slo_verdict () =
  let out =
    Stats.Report.percentile_table ~unit_label:"us"
      ~slo:[ ("fast", 10.0); ("slow", 2.0) ]
      [
        ("fast", Array.init 100 (fun i -> float_of_int (i + 1) /. 20.0));
        ("slow", Array.init 100 (fun i -> float_of_int (i + 1) /. 20.0));
        ("untargeted", [| 1.0 |]);
      ]
  in
  Alcotest.(check bool) "p99.9 column" true (contains out "p99.9");
  Alcotest.(check bool) "slo column" true (contains out "slo p99 (us)");
  Alcotest.(check bool) "met verdict" true (contains out "met");
  Alcotest.(check bool) "missed verdict" true (contains out "MISSED")

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "root span = invocation cycles" `Quick
            test_root_span_equals_cycles;
          Alcotest.test_case "phase spans tile the invocation" `Quick
            test_phase_spans_tile_invocation;
          Alcotest.test_case "snapshot capture/restore spans" `Quick test_snapshot_spans;
          Alcotest.test_case "with_span is exception-safe" `Quick
            test_with_span_exception_safe;
          Alcotest.test_case "sink capacity drops excess" `Quick test_sink_capacity_drops;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentile interpolation" `Quick test_histogram_percentiles;
          Alcotest.test_case "constant input is exact" `Quick test_histogram_constant_exact;
          Alcotest.test_case "log2 bucket index" `Quick test_bucket_index;
          Alcotest.test_case "kind mismatch rejected" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "bad samples rejected" `Quick
            test_bad_samples_rejected;
          Alcotest.test_case "bad-sample counter is lazy" `Quick
            test_bad_samples_counter_lazy;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome JSON parses" `Quick test_chrome_json_parses;
          Alcotest.test_case "chrome JSON deterministic per seed" `Quick
            test_chrome_json_deterministic;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_text;
          Alcotest.test_case "prometheus label escaping" `Quick
            test_prometheus_label_escaping;
          Alcotest.test_case "chrome per-core tids" `Quick test_chrome_per_core_tids;
          Alcotest.test_case "summary renders phases" `Quick test_summary_renders;
          Alcotest.test_case "percentile table renders" `Quick
            test_percentile_table_renders;
        ] );
      ( "integration",
        [
          Alcotest.test_case "span stamps monotone" `Quick test_span_stamps_monotone;
          Alcotest.test_case "one attach point" `Quick test_one_attach_point;
          Alcotest.test_case "pool and kvm metrics" `Quick test_pool_and_kvm_metrics;
          Alcotest.test_case "paged-memory gauges" `Quick test_memory_gauges;
        ] );
      ( "tracectx",
        [
          Alcotest.test_case "one trace, parent links form a tree" `Quick test_trace_tree;
          Alcotest.test_case "same seed, byte-identical ids" `Quick
            test_trace_ids_deterministic;
          Alcotest.test_case "instants carry the trace id" `Quick test_instants_stamped;
          Alcotest.test_case "prometheus exemplar resolves" `Quick
            test_prometheus_exemplar;
          Alcotest.test_case "labeled histogram export" `Quick
            test_labeled_histogram_export;
          Alcotest.test_case "registry order stable" `Quick test_registry_order_stable;
          Alcotest.test_case "chrome cross-core flow events" `Quick
            test_chrome_flow_events;
        ] );
      ( "slo",
        [
          Alcotest.test_case "burn-rate alert fires and clears" `Quick
            test_slo_fire_and_clear;
          Alcotest.test_case "latency objective" `Quick test_slo_latency_objective;
          Alcotest.test_case "percentile table slo verdict" `Quick
            test_percentile_table_slo_verdict;
        ] );
    ]
