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

type Wasp.Univ.t += Native_state

(* run_native shares run's lifecycle: its phases tile each invocation
   too, and its snapshot_restore span names the restore kind. *)
let test_native_tiles_and_restore_kind () =
  List.iter
    (fun (reset, label, kind) ->
      let w = Wasp.Runtime.create ~seed:0xACE ~reset () in
      let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
      Wasp.Runtime.set_telemetry w (Some hub);
      let run () =
        Wasp.Runtime.run_native w ~name:"telemetry-native"
          ~policy:(Wasp.Policy.of_list [ Wasp.Hc.snapshot ])
          ~snapshot_key:"tele-native"
          ~body:(fun ctx ~restored ->
            let module N = Wasp.Runtime.Native_ctx in
            match restored with
            | Some _ -> 1L
            | None ->
                N.charge ctx 10_000;
                Vm.Memory.write_u64 (N.mem ctx) (N.alloc ctx 4096) 1L;
                N.offer_snapshot_state ctx (fun () -> Native_state);
                ignore (N.hypercall ctx Wasp.Hc.snapshot [||]);
                0L)
          ()
      in
      let r1 = run () in
      let r2 = run () in
      Alcotest.(check bool) (label ^ ": second run restored") true
        r2.Wasp.Runtime.from_snapshot;
      (* spans come back in opening order, so each root's subtree runs up
         to the next root *)
      let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
      let subtrees =
        List.fold_left
          (fun acc (s : Telemetry.Span.span) ->
            match acc with
            | _ when s.depth = 0 -> [ s ] :: acc
            | tree :: rest -> (s :: tree) :: rest
            | [] -> acc)
          [] spans
        |> List.rev
      in
      let phase_sum tree =
        List.fold_left
          (fun acc (s : Telemetry.Span.span) ->
            if s.depth = 1 then Int64.add acc s.duration else acc)
          0L tree
      in
      Alcotest.(check (list int64))
        (label ^ ": depth-1 spans sum to each invocation's cycles")
        [ r1.Wasp.Runtime.cycles; r2.Wasp.Runtime.cycles ]
        (List.map phase_sum subtrees);
      match
        List.filter (fun (s : Telemetry.Span.span) -> s.name = "snapshot_restore") spans
      with
      | [ s ] ->
          Alcotest.(check (option string)) (label ^ ": restore kind") (Some kind)
            (List.assoc_opt "kind" s.Telemetry.Span.args)
      | l -> Alcotest.failf "%s: expected one snapshot_restore, got %d" label (List.length l))
    [ (`Memcpy, "memcpy reset", "memcpy"); (`Cow, "cow reset", "cow") ]

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

(* The sink keeps the first [capacity] items opened: a span that took a
   slot keeps it, though items opened after it fill the sink first. *)
let test_sink_keeps_first_opened () =
  let module S = Telemetry.Span in
  let clk = Cycles.Clock.create () in
  let sink = S.create ~capacity:2 ~clock:clk () in
  S.enter sink "parent";
  S.instant sink "full";
  S.enter sink "child";
  Cycles.Clock.advance clk 5L;
  S.leave sink ();
  Alcotest.(check int) "child counted as dropped" 1 (S.dropped sink);
  Alcotest.(check int) "not yet counted: the parent is open" 1 (S.count sink);
  S.leave sink ();
  Alcotest.(check int) "retained" 2 (S.count sink);
  Alcotest.(check int) "dropped" 1 (S.dropped sink);
  Alcotest.(check (list string)) "parent kept, in open order" [ "parent"; "full" ]
    (List.map
       (function S.Complete sp -> sp.S.name | S.Instant i -> i.i_name)
       (S.items sink));
  match S.spans sink with
  | [ parent ] -> Alcotest.(check int64) "parent's duration" 5L parent.S.duration
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

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

(* --- one set of counters --------------------------------------------- *)

(* A scenario on one runtime that bumps every series a typed view reads:
   two injection sites, supervisor retries, a failure and a quarantine
   rejection, a denied hypercall, a fault, fuel exhaustion, CoW snapshot
   restores, pool hits, a clean stall, an eviction, a prewarm hit, and
   gateway shed and breaker rejections. [midway] runs between its two
   halves; every layer writes to the hub in the second half. Returns the
   supervisor and gateway the views are read from. *)
let counter_scenario ?(midway = fun _ _ -> ()) w =
  let module R = Wasp.Runtime in
  let module S = Wasp.Supervisor in
  let plan =
    Cycles.Fault_plan.create
      [
        (Kvmsim.Kvm.site_provision_fail, Cycles.Fault_plan.Every { start = 0; interval = 0 });
        (Kvmsim.Kvm.site_spurious_exit, Cycles.Fault_plan.Every { start = 0; interval = 4 });
      ]
  in
  R.set_fault_plan w (Some plan);
  let sup =
    S.create
      ~config:{ S.default_config with S.max_retries = 1; quarantine_threshold = 1 }
      w
  in
  let platform = Serverless.Vespid.create w in
  Serverless.Vespid.register platform ~name:"boom"
    ~source:"function boom(d) { return nothing_here(); }" ~entry:"boom";
  let g =
    Serverless.Gateway.create
      ~breaker:{ Serverless.Gateway.failure_threshold = 1; cooldown = Int64.max_int }
      ~shed:{ Serverless.Gateway.burst = 2; refill_per_s = 1e-9 }
      platform
  in
  let asm ?mem_size name src = Wasp.Image.of_asm_string ?mem_size ~name src in
  let hlt ?mem_size () = asm ?mem_size "hlt" "hlt" in
  (* the failed provision is retried *)
  ignore (S.run sup (hlt ()) ());
  (* one allowed and one denied hypercall *)
  ignore
    (R.run w
       (asm "denied" "mov r0, 12\nout 1, r0\nmov r0, 0\nout 1, r0\nhlt")
       ~policy:(Wasp.Policy.of_list [ Wasp.Hc.exit_ ])
       ());
  (* a fault on every attempt fails the key, which is then quarantined *)
  let wild name = asm name "mov r1, 0x7ffffff0\nld64 r0, [r1]\nhlt" in
  ignore (S.run sup (wild "bad") ());
  ignore (S.run sup (wild "bad") ());
  ignore (R.run w (asm "spin" "spin:\n  jmp spin") ~fuel:1_000 ());
  midway sup g;
  (* the supervisor writes on this side too: a retry, then a quarantine *)
  ignore (S.run sup (wild "late") ());
  let snap =
    asm "snap"
      "mov r0, 6\nout 1, r0\nmov r1, 0x1000\nmov r2, 7\nst64 [r1], r2\nmov r0, 0\nout 1, r0"
  in
  let snap_policy = Wasp.Policy.of_list [ Wasp.Hc.snapshot ] in
  for _ = 1 to 3 do
    ignore (R.run w snap ~policy:snap_policy ~snapshot_key:"snap" ())
  done;
  R.set_reclaim_policy w Wasp.Pool.Scheduled;
  ignore (R.run w (hlt ()) ());
  (* the shell is still on the reclaim queue: this acquire stalls *)
  ignore (R.run w (hlt ()) ());
  ignore (R.run w (hlt ~mem_size:0x20000 ()) ());
  (* two drained shells, one slot per shard: one is evicted *)
  ignore (R.drain_reclaim w ~core:0 ~budget:max_int);
  R.set_prewarm w
    (Some { Wasp.Pool.pw_mem_size = 0x30000; pw_mode = Vm.Modes.Long; pw_target = 1 });
  ignore (R.prewarm_step w ~core:0 ~budget:max_int);
  ignore (R.run w (hlt ~mem_size:0x30000 ()) ());
  (* a failure opens the breaker, which refuses the next request; the
     bucket is then empty, so the third is shed *)
  for _ = 1 to 3 do
    ignore
      (Serverless.Gateway.handle g
         (Vhttp.Http.request_to_string
            (Vhttp.Http.make_request ~body:"x" "POST" "/invoke/boom")))
  done;
  (sup, g)

(* Each typed view field beside the hub counter it counts. *)
let counter_views w sup g =
  let k = Kvmsim.Kvm.stats (Wasp.Runtime.kvm w) in
  let r = Wasp.Runtime.stats w in
  let p = Wasp.Runtime.pool_stats w in
  let s = Wasp.Supervisor.stats sup in
  [
    ("runs", k.Kvmsim.Kvm.runs, "kvm_runs_total");
    ("io_exits", k.io_exits, "kvm_io_exits_total");
    ("fault_exits", k.fault_exits, "kvm_fault_exits_total");
    ("ept_violations", k.ept_violations, "kvm_ept_violations_total");
    ("injected_faults", k.injected_faults, "wasp_faults_injected_total");
    ("invocations", r.Wasp.Runtime.invocations, "wasp_invocations_total");
    ("exited", r.exited, "wasp_exited_total");
    ("faulted", r.faulted, "wasp_faulted_total");
    ("fuel_exhausted", r.fuel_exhausted, "wasp_fuel_exhausted_total");
    ("hypercalls", r.hypercalls, "wasp_hypercalls_total");
    ("denied", r.denied, "wasp_denied_hypercalls_total");
    ("snapshot_restores", r.snapshot_restores, "wasp_snapshot_restores_total");
    ("reused", p.Wasp.Pool.reused, "wasp_pool_hits_total");
    ("cleans", p.cleans, "wasp_pool_cleans_total");
    ("evicted", p.evicted, "wasp_pool_evictions_total");
    ("clean_stalls", p.clean_stalls, "wasp_pool_clean_stalls_total");
    ("prewarmed", p.prewarmed, "wasp_pool_prewarmed_total");
    ("prewarm_hits", p.prewarm_hits, "wasp_pool_prewarm_hits_total");
    ("supervised", s.Wasp.Supervisor.supervised, "wasp_supervised_total");
    ("failed", s.failed, "wasp_supervised_failures_total");
    ("retries", s.retries, "wasp_retries_total");
    ("quarantine_rejections", s.quarantine_rejections, "wasp_quarantine_rejections_total");
    ("shed_count", Serverless.Gateway.shed_count g, "gateway_shed_total");
    ( "breaker_rejections",
      Serverless.Gateway.breaker_rejections g,
      "gateway_breaker_rejections_total" );
  ]

(* The counter series of [name] in [hub], by label set. *)
let counter_series hub name =
  List.filter_map
    (function
      | Telemetry.Metrics.Counter c when String.equal c.Telemetry.Metrics.c_name name ->
          Some (c.c_labels, c.c_value)
      | _ -> None)
    (Telemetry.Metrics.to_list (Telemetry.Hub.metrics hub))

let counter_total hub name =
  Option.value ~default:0 (List.assoc_opt [] (counter_series hub name))

let exit_series hub =
  List.map
    (fun (labels, v) -> (List.assoc "reason" labels, v))
    (counter_series hub "kvm_exits_total")
  |> List.sort compare

let with_hub w =
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  hub

let counter_runtime () =
  Wasp.Runtime.create ~seed:0xC0C0 ~clean:`Async ~reset:`Cow ~pool_capacity:1 ()

(* The typed stats records and the hub's counters are one set of counts:
   with a hub attached from the start they agree field for field; a hub
   attached later counts only what follows it, while the views keep
   lifetime totals; a fresh hub after a detach starts from zero. *)
let test_counter_contract () =
  let w = counter_runtime () in
  let hub = with_hub w in
  let sup, g = counter_scenario w in
  let views = counter_views w sup g in
  List.iter
    (fun (field, v, series) ->
      Alcotest.(check bool) (field ^ " is exercised") true (v > 0);
      Alcotest.(check int) (field ^ " = " ^ series) v (counter_total hub series))
    views;
  Alcotest.(check (list string)) "injections at two sites"
    [ Kvmsim.Kvm.site_provision_fail; Kvmsim.Kvm.site_spurious_exit ]
    (List.filter_map
       (fun (labels, _) -> List.assoc_opt "site" labels)
       (counter_series hub "wasp_faults_injected_total"));
  let reasons = Kvmsim.Kvm.exit_reason_counts (Wasp.Runtime.kvm w) in
  Alcotest.(check (list (pair string int)))
    "exit_reason_counts = kvm_exits_total{reason}" (exit_series hub) reasons;
  List.iter
    (fun reason ->
      Alcotest.(check bool) (reason ^ " exits counted") true (List.mem_assoc reason reasons))
    [ "hlt"; "hypercall"; "fault"; "fuel" ];
  (* the same scenario, observed only from its midpoint *)
  let w2 = counter_runtime () in
  let sys2 = Wasp.Runtime.kvm w2 in
  let late = ref None and at_attach = ref [] and exits_at_attach = ref [] in
  let sup2, g2 =
    counter_scenario w2 ~midway:(fun sup g ->
        at_attach := counter_views w2 sup g;
        exits_at_attach := Kvmsim.Kvm.exit_reason_counts sys2;
        late := Some (with_hub w2))
  in
  let late = Option.get !late in
  let views2 = counter_views w2 sup2 g2 in
  let invocations views = List.assoc "invocations" (List.map (fun (f, v, _) -> (f, v)) views) in
  Alcotest.(check bool) "invocations on both sides of the attach" true
    (invocations !at_attach > 0 && invocations views2 > invocations !at_attach);
  List.iter2
    (fun (field, v, series) ((_, v2, _), (_, v0, _)) ->
      Alcotest.(check int) (field ^ " keeps its lifetime total") v v2;
      Alcotest.(check int) (series ^ " counts from the attach") (v2 - v0)
        (counter_total late series))
    views
    (List.combine views2 !at_attach);
  let exits_since =
    List.filter_map
      (fun (reason, n) ->
        let d = n - Option.value ~default:0 (List.assoc_opt reason !exits_at_attach) in
        if d > 0 then Some (reason, d) else None)
      (Kvmsim.Kvm.exit_reason_counts sys2)
  in
  Alcotest.(check (list (pair string int)))
    "kvm_exits_total{reason} counts from the attach" exits_since (exit_series late);
  (* detached, nothing reaches the late hub; a fresh one starts at zero *)
  Wasp.Runtime.set_telemetry w2 None;
  let hlt = Wasp.Image.of_asm_string ~name:"hlt" "hlt" in
  ignore (Wasp.Runtime.run w2 hlt ());
  let late_invocations = counter_total late "wasp_invocations_total" in
  let before_fresh = counter_views w2 sup2 g2 in
  let fresh = with_hub w2 in
  Alcotest.(check int) "a fresh hub holds no counter" 0
    (List.length
       (List.filter
          (function Telemetry.Metrics.Counter _ -> true | _ -> false)
          (Telemetry.Metrics.to_list (Telemetry.Hub.metrics fresh))));
  ignore (Wasp.Runtime.run w2 hlt ());
  List.iter2
    (fun (_, v1, series) (_, v0, _) ->
      Alcotest.(check int) (series ^ " starts at zero in a fresh hub") (v1 - v0)
        (counter_total fresh series))
    (counter_views w2 sup2 g2) before_fresh;
  Alcotest.(check int) "the detached hub saw nothing more" late_invocations
    (counter_total late "wasp_invocations_total")

(* --- one write path ---------------------------------------------------- *)

(* Everything a hub holds, rendered: spans and instants (Chrome JSON)
   and every metric series (Prometheus text). *)
let hub_contents hub =
  Telemetry.Chrome.to_json hub ^ Telemetry.Prometheus.to_text (Telemetry.Hub.metrics hub)

(* Every layer writes its spans, instants, gauges and histograms through
   the KVM system: a hub detached at [midway] hears nothing more from
   any of them, and the hub attached in its place hears all of them. *)
let test_one_write_path () =
  let w = counter_runtime () in
  let first = with_hub w in
  let frozen = ref "" and second = ref None in
  ignore
    (counter_scenario w ~midway:(fun _ _ ->
         Wasp.Runtime.set_telemetry w None;
         frozen := hub_contents first;
         second := Some (with_hub w)));
  Alcotest.(check bool) "the first hub heard the first half" true
    (Telemetry.Span.count (Telemetry.Hub.spans first) > 0);
  Alcotest.(check string) "the detached hub hears nothing more" !frozen (hub_contents first);
  let second = Option.get !second in
  let items = Telemetry.Span.items (Telemetry.Hub.spans second) in
  let metrics = Telemetry.Metrics.to_list (Telemetry.Hub.metrics second) in
  let heard (layer, kind, name) =
    let found =
      match kind with
      | `Span ->
          List.exists
            (function Telemetry.Span.Complete s -> s.name = name | Instant _ -> false)
            items
      | `Instant ->
          List.exists
            (function Telemetry.Span.Instant i -> i.i_name = name | Complete _ -> false)
            items
      | `Gauge ->
          List.exists
            (function Telemetry.Metrics.Gauge g -> g.g_name = name | _ -> false)
            metrics
      | `Histogram ->
          List.exists
            (function Telemetry.Metrics.Histogram h -> h.h_name = name | _ -> false)
            metrics
    in
    Alcotest.(check bool) (layer ^ " reaches the new hub: " ^ name) true found
  in
  List.iter heard
    [
      ("Kvm", `Span, "vcpu_run");
      ("Runtime", `Span, "provision");
      ("Runtime", `Gauge, "wasp_mem_resident_pages");
      ("Runtime", `Gauge, "wasp_snapshot_store_entries");
      ("Runtime", `Histogram, "wasp_invocation_cycles");
      ("Pool", `Span, "pool_acquire");
      ("Pool", `Instant, "pool_hit");
      ("Pool", `Instant, "clean_stall");
      ("Pool", `Instant, "pool_prewarm_hit");
      ("Pool", `Gauge, "wasp_pool_size");
      ("Supervisor", `Span, "attempt");
      ("Supervisor", `Instant, "supervisor_retry");
      ("Supervisor", `Instant, "supervisor_quarantine");
      ("Supervisor", `Gauge, "wasp_quarantined_images");
      ("Vespid", `Span, "invoke");
      ("Vespid", `Histogram, "vespid_invoke_cycles");
      ("Gateway", `Span, "route");
      ("Gateway", `Gauge, "wasp_breaker_state");
    ]

(* --- spans on multi-core runtimes ------------------------------------ *)

let root_span hub =
  List.find
    (fun (s : Telemetry.Span.span) -> s.name = "invocation" && s.depth = 0)
    (Telemetry.Span.spans (Telemetry.Hub.spans hub))

(* A retained CoW shell pins its invocation to the shell's home core.
   The switch happens before the root span opens, so the span is
   stamped on that core and still equals the reported cycles when the
   caller stood on a core whose clock is far behind. *)
let test_cow_root_span_on_home_core () =
  let w = Wasp.Runtime.create ~seed:0xACE ~cores:2 ~reset:`Cow () in
  let hub = with_hub w in
  let img =
    Wasp.Image.of_asm_string ~name:"home"
      "mov r0, 6\nout 1, r0\nmov r1, 0x1000\nmov r2, 7\nst64 [r1], r2\nmov r0, 0\nout 1, r0"
  in
  let run () =
    Wasp.Runtime.run w img ~policy:(Wasp.Policy.of_list [ Wasp.Hc.snapshot ])
      ~snapshot_key:"home" ()
  in
  Wasp.Runtime.on_core w 0;
  ignore (run ());
  Cycles.Clock.advance_int (Wasp.Runtime.core_clock w 0) 5_000_000;
  Wasp.Runtime.on_core w 1;
  Telemetry.Hub.clear_spans hub;
  let r = run () in
  Alcotest.(check bool) "restored on the retained shell" true r.Wasp.Runtime.from_snapshot;
  let root = root_span hub in
  Alcotest.(check int64) "root span = invocation cycles" r.Wasp.Runtime.cycles
    root.Telemetry.Span.duration;
  Alcotest.(check int) "root span on the shell's home core" 0 root.Telemetry.Span.core

(* A gateway on two cores serves invocations round-robin. The serving
   core is current before [route] opens, so each route span is its
   invoke child's time on that child's core. *)
let test_gateway_route_on_serving_core () =
  let w = Wasp.Runtime.create ~seed:0xACE ~cores:2 () in
  let hub = with_hub w in
  let platform = Serverless.Vespid.create w in
  Serverless.Vespid.register platform ~name:"f"
    ~source:"function f(d) { return 'n=' + d.length; }" ~entry:"f";
  let g = Serverless.Gateway.create platform in
  for _ = 1 to 4 do
    ignore
      (Serverless.Gateway.handle g
         (Vhttp.Http.request_to_string (Vhttp.Http.make_request ~body:"x" "POST" "/invoke/f")))
  done;
  let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
  let routes = List.filter (fun (s : Telemetry.Span.span) -> s.name = "route") spans in
  Alcotest.(check int) "four route spans" 4 (List.length routes);
  List.iter
    (fun (route : Telemetry.Span.span) ->
      let invoke =
        List.find
          (fun (s : Telemetry.Span.span) -> s.name = "invoke" && s.seq > route.seq)
          spans
      in
      Alcotest.(check bool) "route span >= 0" true (Int64.compare route.duration 0L >= 0);
      Alcotest.(check int64) "route span = its invoke child" invoke.duration route.duration;
      Alcotest.(check int) "route span on its child's core" invoke.core route.core)
    routes;
  Alcotest.(check (list int)) "round-robin over both cores" [ 0; 1; 0; 1 ]
    (List.map (fun (s : Telemetry.Span.span) -> s.core) routes)

(* A hub attached while a non-zero core is current stamps that core and
   times spans on its clock from the first span on. *)
let test_attach_on_current_core () =
  let w = Wasp.Runtime.create ~seed:0xACE ~cores:3 () in
  Wasp.Runtime.on_core w 2;
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.core_clock w 0) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  Alcotest.(check bool) "the hub reads core 2's clock" true
    (Telemetry.Hub.clock hub == Wasp.Runtime.core_clock w 2);
  let r = Wasp.Runtime.run w (demo_image ()) ~policy:Wasp.Policy.allow_all () in
  let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
  Alcotest.(check bool) "spans recorded" true (spans <> []);
  List.iter
    (fun (s : Telemetry.Span.span) -> Alcotest.(check int) (s.name ^ " on core 2") 2 s.core)
    spans;
  Alcotest.(check int64) "root span = invocation cycles" r.Wasp.Runtime.cycles
    (root_span hub).Telemetry.Span.duration

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

(* Flows join the tracer's ids: args a caller merely names span_id and
   parent_id draw no arrow, traced or not. *)
let test_chrome_flows_need_tracer_ids () =
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:clk () in
  let json () =
    Telemetry.Hub.enter hub ~args:[ ("span_id", "a") ] "dispatch";
    Telemetry.Hub.set_core hub 1;
    Telemetry.Hub.with_span hub ~args:[ ("parent_id", "a"); ("span_id", "b") ] "work" ignore;
    Telemetry.Hub.set_core hub 0;
    Telemetry.Hub.leave hub ();
    Telemetry.Chrome.to_json hub
  in
  Alcotest.(check bool) "untraced: no flow" false (contains (json ()) "\"ph\":\"s\"");
  Telemetry.Hub.clear_spans hub;
  Telemetry.Hub.enable_tracing hub ~seed:42;
  Alcotest.(check bool) "traced: the tracer's flow" true (contains (json ()) "\"ph\":\"s\"")

let test_id_of_string_strict () =
  List.iter
    (fun s ->
      Alcotest.(check (option int64)) (Printf.sprintf "%S rejected" s) None
        (Telemetry.Tracectx.id_of_string s))
    [
      "0000000000000_01";
      "_000000000000001";
      "+000000000000001";
      "-000000000000001";
      "0x00000000000001";
      "0X00000000000001";
      "0o00000000000001";
      " 000000000000001";
      "000000000000001 ";
      "000000000000000g";
      "000000000000001";
      "00000000000000001";
      "";
    ];
  Alcotest.(check (option int64)) "either case of hex digit" (Some 0xABCDEF0123456789L)
    (Telemetry.Tracectx.id_of_string "AbCdEf0123456789")

let gen_id =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0xFFFFFFFFL; 0x100000000L ];
        map2
          (fun hi lo -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
          (int_bound 0xFFFF_FFFF) (int_bound 0xFFFF_FFFF);
      ])

let prop_id_round_trip =
  QCheck.Test.make ~name:"id_to_string is %016Lx and id_of_string inverts it" ~count:1000
    (QCheck.make ~print:Int64.to_string gen_id) (fun x ->
      let s = Telemetry.Tracectx.id_to_string x in
      String.equal s (Printf.sprintf "%016Lx" x)
      && Telemetry.Tracectx.id_of_string s = Some x)

let fixed3 = Telemetry.Chrome.fixed3

let prop_fixed3_cycles =
  QCheck.Test.make ~name:"ts/dur of random cycle counts print as %.3f" ~count:3000
    (QCheck.make
       ~print:(fun (f, c) -> Printf.sprintf "%g GHz, %d cycles" f c)
       QCheck.Gen.(
         pair
           (oneof [ oneofl [ 2.69; 1.0; 3.0; 2.4; 0.8 ]; float_range 0.1 6.0 ])
           (oneof [ int_bound 10_000; int_bound 100_000_000; int_bound max_int ])))
    (fun (freq_ghz, c) ->
      let x = Cycles.Clock.to_us (Cycles.Clock.create ~freq_ghz ()) (Int64.of_int c) in
      String.equal (fixed3 x) (Printf.sprintf "%.3f" x))

let test_fixed3_edges () =
  let check x =
    Alcotest.(check string) (Printf.sprintf "%h" x) (Printf.sprintf "%.3f" x) (fixed3 x)
  in
  (* within one ulp of (k+0.5)/1000, and exact binary ties m/16 with m odd *)
  List.iter
    (fun k ->
      let t = (float_of_int k +. 0.5) /. 1000.0 in
      List.iter check [ Float.pred t; t; Float.succ t ])
    [ 0; 1; 62; 187; 999; 1_000; 123_456; 2_147_483_647; 1 lsl 40; (1 lsl 49) - 1 ];
  List.iter (fun m -> check (float_of_int m /. 16.0)) [ 1; 3; 5; 12_345; (1 lsl 40) + 1 ];
  (* past the fast path's range, and values it hands to Printf *)
  List.iter check
    [
      0.0; -0.0; 1e-300; Float.min_float; 0.0005; 5.6e11; 5.7e11; 1e12; 1e15; 1e20;
      Float.max_float; Float.infinity; Float.neg_infinity; Float.nan; -1.5; -1234.0625;
    ]

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

(* --- exporter bytes, pinned -------------------------------------------- *)

(* One deterministic traced scenario that reaches every formatting path
   of both exporters: two cores on their own clocks (cross-core children
   draw flow events, and SLO stamps arrive out of order), instants whose
   names and args need escaping, an SLO storm that fires and clears, and
   a labelled histogram with exemplars. Its output is committed under
   test/fixtures/ and compared byte for byte, which also pins the order
   in which the SLO registers its series. *)
let export_scenario () =
  let c0 = Cycles.Clock.create () and c1 = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:c0 () in
  let on core clk =
    Telemetry.Hub.set_clock hub clk;
    Telemetry.Hub.set_core hub core
  in
  Telemetry.Hub.with_span hub ~args:[ ("phase", "untraced") ] "setup" (fun () ->
      Cycles.Clock.advance_int c0 12_345);
  Telemetry.Hub.enable_tracing hub ~seed:17;
  let slo = Telemetry.Slo.create ~hub ~name:"export" ~target:0.9 ~period:400_000L () in
  let work =
    Telemetry.Metrics.histogram (Telemetry.Hub.metrics hub) ~help:"work \"cycles\"\nper request"
      ~labels:[ ("fn", "a\\b\"c\nd") ]
      "export_work_cycles"
  in
  for i = 0 to 79 do
    let storm = i >= 30 && i < 45 in
    on 0 c0;
    Telemetry.Hub.enter hub ~args:[ ("req", string_of_int i) ] "request";
    Cycles.Clock.advance_int c0 (1_000 + (37 * i));
    on 1 c1;
    Telemetry.Hub.with_span hub "work" (fun () ->
        let v = 250 + (i * 7919 mod 4000) in
        Cycles.Clock.advance_int c1 v;
        if i mod 10 = 3 then
          Telemetry.Hub.instant hub
            ~args:[ ("note", "quote\" back\\ nl\n ctl\001 tab\t cr\r"); ("i\"k", "v") ]
            "odd\"mark";
        let exemplar =
          Option.map Telemetry.Tracectx.id_to_string (Telemetry.Hub.current_trace hub)
        in
        Telemetry.Metrics.observe ?exemplar work (Int64.of_int v);
        Telemetry.Hub.observe hub "export_request_cycles" (Int64.of_int (v * 3));
        Telemetry.Slo.record slo ~good:(not (storm && i mod 3 <> 0)));
    on 0 c0;
    (* the last bad event leaves nonzero burn gauges without firing *)
    Telemetry.Slo.record slo ~good:(not (storm || i = 76));
    Telemetry.Hub.leave hub ()
  done;
  (hub, slo)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* On a mismatch the produced bytes land beside the test binary as
   [<fixture>.actual], so a deliberate format change can be reviewed and
   committed with cp. *)
let check_fixture name actual =
  let expected = read_file (Filename.concat "fixtures" name) in
  if not (String.equal expected actual) then begin
    let out = name ^ ".actual" in
    Out_channel.with_open_bin out (fun oc -> output_string oc actual);
    let n = min (String.length expected) (String.length actual) in
    let rec first i = if i < n && expected.[i] = actual.[i] then first (i + 1) else i in
    Alcotest.failf "%s: bytes differ from offset %d (expected %d bytes, got %d); wrote %s" name
      (first 0) (String.length expected) (String.length actual) out
  end

let test_exporter_bytes_pinned () =
  let hub, slo = export_scenario () in
  Alcotest.(check bool) "the storm fired an alert" true (Telemetry.Slo.alerts_fired slo > 0);
  Alcotest.(check bool) "and it cleared" false (Telemetry.Slo.alerting slo);
  check_fixture "telemetry-export.json"
    (Telemetry.Chrome.to_json ~process:"wasp \"fixture\"" hub);
  check_fixture "telemetry-export.prom"
    (Telemetry.Prometheus.to_text (Telemetry.Hub.metrics hub))

(* --- the exporter against its reference model ---------------------------- *)

(* A random hub as a script: spans opened and closed on 1-4 cores, each
   with its own clock, so cross-core children draw flows and a span
   closed on another core's clock can get a negative duration; instants;
   names and args with quotes, backslashes, control and non-ASCII bytes,
   given at [enter] and at [leave]; clock steps that land [ts] and [dur]
   near a [%.3f] tie (odd cycle counts at 0.5-4 GHz) or past the fast
   path's range (>= 2^49 ns); clears with spans open; a sink of 1-8
   items now and then, so some scripts overflow it. *)
type hub_op =
  | Enter of string * (string * string) list
  | Leave of (string * string) list
  | Mark of string * (string * string) list
  | Tick of int
  | On of int
  | Clear

type hub_script = {
  freq : float;
  cores : int;
  traced : bool;
  capacity : int option;
  process : string option;
  ops : hub_op list;
}

let gen_text =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "invocation"; "execute"; "k"; "span_id"; "parent_id"; "" ];
        (* the bytes that need escaping, their neighbours, and the same
           with the top bit set, in strings long enough for the
           exporter's eight-byte scan *)
        string_size
          ~gen:
            (oneofl
               [ 'a'; 'Z'; ' '; '!'; '#'; '"'; '\\'; '['; ']'; '\n'; '\r'; '\t'; '\000'; '\031';
                 '\127'; '\x80'; '\x9f'; '\xa0'; '\xa2'; '\xdc'; '\xc3'; '\xa9'; '\xff' ])
          (int_bound 24);
      ])

let gen_hub_script =
  QCheck.Gen.(
    let* cores = int_range 1 4 in
    let args = list_size (int_bound 3) (pair gen_text gen_text) in
    let op =
      frequency
        [
          (4, map2 (fun n a -> Enter (n, a)) gen_text args);
          (3, return (Leave []));
          (1, map (fun a -> Leave a) args);
          (2, map2 (fun n a -> Mark (n, a)) gen_text args);
          (4, map (fun c -> Tick c) (oneof [ int_bound 20; int_bound 1_000_000 ]));
          (1, map (fun c -> Tick c) (int_range (1 lsl 50) (1 lsl 52)));
          (3, map (fun c -> On c) (int_bound (cores - 1)));
          (1, return Clear);
        ]
    in
    let* freq = oneofl [ 2.69; 2.0; 1.0; 0.5; 4.0; 3.0 ] in
    let* traced = frequency [ (4, return true); (1, return false) ] in
    let* capacity = frequency [ (4, return None); (1, map Option.some (int_range 1 8)) ] in
    let* process = option gen_text in
    let* ops = list_size (int_bound 60) op in
    return { freq; cores; traced; capacity; process; ops })

let print_hub_script s =
  let args a = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) a) in
  Printf.sprintf "%g GHz, %d cores, traced %b, capacity %s, process %s: %s" s.freq s.cores
    s.traced
    (Option.fold ~none:"-" ~some:string_of_int s.capacity)
    (Option.fold ~none:"-" ~some:(Printf.sprintf "%S") s.process)
    (String.concat "; "
       (List.map
          (function
            | Enter (n, a) -> Printf.sprintf "enter %S [%s]" n (args a)
            | Leave a -> Printf.sprintf "leave [%s]" (args a)
            | Mark (n, a) -> Printf.sprintf "instant %S [%s]" n (args a)
            | Tick c -> Printf.sprintf "tick %d" c
            | On c -> Printf.sprintf "core %d" c
            | Clear -> "clear")
          s.ops))

let hub_of_script s =
  let clocks = Array.init s.cores (fun _ -> Cycles.Clock.create ~freq_ghz:s.freq ()) in
  let hub = Telemetry.Hub.create ?capacity:s.capacity ~clock:clocks.(0) () in
  if s.traced then Telemetry.Hub.enable_tracing hub ~seed:7;
  let core = ref 0 in
  List.iter
    (function
      | Enter (n, args) -> Telemetry.Hub.enter hub ~args n
      | Leave args -> Telemetry.Hub.leave hub ~args ()
      | Mark (n, args) -> Telemetry.Hub.instant hub ~args n
      | Tick c -> Cycles.Clock.advance_int clocks.(!core) c
      | On c ->
          core := c;
          Telemetry.Hub.set_clock hub clocks.(c);
          Telemetry.Hub.set_core hub c
      | Clear -> Telemetry.Hub.clear_spans hub)
    s.ops;
  hub

let prop_chrome_matches_reference =
  QCheck.Test.make ~name:"chrome JSON equals the reference exporter's" ~count:500
    (QCheck.make ~print:print_hub_script gen_hub_script) (fun s ->
      let hub = hub_of_script s in
      String.equal
        (Telemetry.Chrome.to_json ?process:s.process hub)
        (Chromeref.to_json ?process:s.process hub))

(* The script run on the column store and on the reference list sink
   side by side. [lost] is what either sink dropped, summed over the
   clears (the column store drops first: its open spans hold slots);
   [agree] whether, after every op, the two agree on [depth] and on
   [count + dropped] (items finished since the last clear), which hold
   under either overflow rule. *)
type sink_run = {
  lib : Telemetry.Span.sink;
  model : Spanref.sink;
  lost : int;
  agree : bool;
  open_at_clear : bool;
}

let run_sinks s =
  let module S = Telemetry.Span in
  let clocks = Array.init s.cores (fun _ -> Cycles.Clock.create ~freq_ghz:s.freq ()) in
  let lib = S.create ?capacity:s.capacity ~clock:clocks.(0) () in
  let model = Spanref.create ?capacity:s.capacity ~clock:clocks.(0) () in
  if s.traced then begin
    S.set_tracer lib (Some (Telemetry.Tracectx.create ~seed:7));
    Spanref.set_tracer model (Some (Telemetry.Tracectx.create ~seed:7))
  end;
  let core = ref 0 and lost = ref 0 and agree = ref true and open_at_clear = ref false in
  List.iter
    (fun op ->
      (match op with
      | Enter (n, args) ->
          S.enter lib ~args n;
          Spanref.enter model ~args n
      | Leave args ->
          S.leave lib ~args ();
          Spanref.leave model ~args ()
      | Mark (n, args) ->
          S.instant lib ~args n;
          Spanref.instant model ~args n
      | Tick c -> Cycles.Clock.advance_int clocks.(!core) c
      | On c ->
          core := c;
          S.set_clock lib clocks.(c);
          S.set_core lib c;
          Spanref.set_clock model clocks.(c);
          Spanref.set_core model c
      | Clear ->
          lost := !lost + S.dropped lib + Spanref.dropped model;
          if Spanref.depth model > 0 then open_at_clear := true;
          S.clear lib;
          Spanref.clear model);
      agree :=
        !agree
        && S.depth lib = Spanref.depth model
        && S.count lib + S.dropped lib = Spanref.count model + Spanref.dropped model)
    s.ops;
  { lib; model; lost = !lost + S.dropped lib + Spanref.dropped model; agree = !agree;
    open_at_clear = !open_at_clear }

let prop_sink_matches_reference =
  QCheck.Test.make ~name:"span sink equals the reference list sink" ~count:1000
    (QCheck.make ~print:print_hub_script gen_hub_script) (fun s ->
      let module S = Telemetry.Span in
      let r = run_sinks s in
      r.agree
      && (r.lost > 0
         || S.items r.lib = Spanref.items r.model
            && S.count r.lib = Spanref.count r.model
            && S.dropped r.lib = Spanref.dropped r.model
            && S.depth r.lib = Spanref.depth r.model))

(* The sink property sees scripts that drop nothing at the small
   capacities too, and scripts with the paths the columns add. *)
let test_sink_scripts_cover () =
  let rand = Random.State.make [| 12 |] in
  let runs =
    List.init 300 (fun _ ->
        let s = QCheck.Gen.generate1 ~rand gen_hub_script in
        (s, run_sinks s))
  in
  List.iter
    (fun (what, ok) -> Alcotest.(check bool) what true (List.exists ok runs))
    [
      ("a small sink that dropped nothing", fun (s, r) -> s.capacity <> None && r.lost = 0);
      ("a clear with a span open", fun (_, r) -> r.lost = 0 && r.open_at_clear);
      ( "args given at leave",
        fun (s, r) ->
          r.lost = 0 && List.exists (function Leave (_ :: _) -> true | _ -> false) s.ops );
      ( "a traced instant",
        fun (_, r) ->
          List.exists
            (function Spanref.Instant i -> List.mem_assoc "trace_id" i.i_args | _ -> false)
            (Spanref.items r.model) );
    ]

(* The scripts reach the paths the property is for. *)
let test_reference_scripts_cover () =
  let rand = Random.State.make [| 11 |] in
  let jsons =
    List.init 200 (fun _ ->
        Chromeref.to_json (hub_of_script (QCheck.Gen.generate1 ~rand gen_hub_script)))
  in
  (* a [ts] of 12 or more integer digits is at least 2^49 ns *)
  let huge_ts j =
    let rec from i =
      match String.index_from_opt j i '"' with
      | None -> false
      | Some i ->
          (i + 17 <= String.length j
          && String.sub j i 5 = "\"ts\":"
          && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub j (i + 5) 12))
          || from (i + 1)
    in
    from 0
  in
  List.iter
    (fun (what, ok) -> Alcotest.(check bool) what true (List.exists ok jsons))
    [
      ("a flow", fun j -> contains j "\"ph\":\"s\"");
      ("an escaped quote", fun j -> contains j "\\\"");
      ("a \\u escape", fun j -> contains j "\\u001f");
      ("a negative duration", fun j -> contains j "\"dur\":-");
      ("a timestamp past 2^49 ns", huge_ts);
    ]

type gc_use = { minor : float; promoted : float; direct_major : float }

(* Words [f] allocates. Counted after a minor collection: OCaml 5 adds a
   direct major allocation to [major_words] only at the next one, and
   what [f] leaves alive is promoted by then. *)
let gc_use f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let v = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let promoted = s1.promoted_words -. s0.promoted_words in
  ( v,
    {
      minor = s1.minor_words -. s0.minor_words;
      promoted;
      direct_major = s1.major_words -. s0.major_words -. promoted;
    } )

let test_chrome_allocation_budget () =
  (* the export is written once at its exact length, straight from the
     sink's columns: the only direct major-heap block is the output
     itself, and no item is copied out to write it *)
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:clk () in
  Telemetry.Hub.enable_tracing hub ~seed:3;
  for i = 0 to 4_999 do
    Telemetry.Hub.with_span hub ~args:[ ("key", "fn-" ^ string_of_int (i mod 17)) ] "invocation"
      (fun () ->
        Cycles.Clock.advance_int clk (1_000 + (i * 37 mod 5_000));
        Telemetry.Hub.instant hub "pool_hit")
  done;
  let json, use = gc_use (fun () -> Telemetry.Chrome.to_json hub) in
  Alcotest.(check int) "10K items" 10_000 (Telemetry.Span.count (Telemetry.Hub.spans hub));
  let out_words = float_of_int ((String.length json / 8) + 1) in
  if use.direct_major > out_words +. 64.0 then
    Alcotest.failf "%.0f direct major words for a %d-byte export (budget %.0f + 64)"
      use.direct_major (String.length json) out_words;
  let minor_per_item = use.minor /. 10_000.0 in
  if minor_per_item > 30.0 then
    Alcotest.failf "%.1f minor words per exported item (budget 30)" minor_per_item

let test_span_allocation_budget () =
  (* a warm traced hub: the columns have grown, so each span reuses a
     slot and nothing it allocates outlives it *)
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:clk () in
  Telemetry.Hub.enable_tracing hub ~seed:3;
  let record () =
    for _ = 1 to 10_000 do
      Telemetry.Hub.enter hub "invocation";
      Cycles.Clock.advance_int clk 1_000;
      Telemetry.Hub.leave hub ()
    done
  in
  record ();
  Telemetry.Hub.clear_spans hub;
  let (), use = gc_use record in
  Alcotest.(check int) "10K spans" 10_000 (Telemetry.Span.count (Telemetry.Hub.spans hub));
  let per_span w = w /. 10_000.0 in
  if per_span use.promoted >= 0.1 then
    Alcotest.failf "%.2f words promoted per span (budget 0)" (per_span use.promoted);
  if per_span use.minor > 70.0 then
    Alcotest.failf "%.1f minor words per span (budget 70)" (per_span use.minor)

(* A reference model of [Slo] as a plain list: every event is kept until
   it leaves the longest window, and each burn rate rescans the list.
   Simple enough to trust, so it is the oracle for the sliding windows. *)
module Slo_model = struct
  type rule_state = {
    rule : Telemetry.Slo.rule;
    mutable active : bool;
    mutable peak : float;
  }

  type t = {
    target : float;
    rules : rule_state list;
    horizon : int64;
    mutable events : (int64 * bool) list;
    mutable newest : int64;
    mutable good_n : int;
    mutable bad_n : int;
    mutable fired : int;
    mutable cleared : int;
  }

  let create ~target rules =
    {
      target;
      rules = List.map (fun rule -> { rule; active = false; peak = 0.0 }) rules;
      horizon =
        List.fold_left
          (fun acc (r : Telemetry.Slo.rule) ->
            if Int64.compare r.long_window acc > 0 then r.long_window else acc)
          1L rules;
      events = [];
      newest = 0L;
      good_n = 0;
      bad_n = 0;
      fired = 0;
      cleared = 0;
    }

  let burn_over t w =
    let total = ref 0 and bad = ref 0 in
    List.iter
      (fun (stamp, good) ->
        if Int64.compare stamp (Int64.sub t.newest w) >= 0 then begin
          incr total;
          if not good then incr bad
        end)
      t.events;
    if !total = 0 then 0.0 else float_of_int !bad /. float_of_int !total /. (1.0 -. t.target)

  let evaluate t =
    List.iter
      (fun rs ->
        let bl = burn_over t rs.rule.long_window and bs = burn_over t rs.rule.short_window in
        if bl > rs.peak then rs.peak <- bl;
        let firing = bl >= rs.rule.burn_threshold && bs >= rs.rule.burn_threshold in
        if firing && not rs.active then begin
          rs.active <- true;
          t.fired <- t.fired + 1
        end
        else if (not firing) && rs.active then begin
          rs.active <- false;
          t.cleared <- t.cleared + 1
        end)
      t.rules

  let record t stamp ~good =
    if Int64.compare stamp t.newest > 0 then t.newest <- stamp;
    t.events <- (stamp, good) :: t.events;
    if good then t.good_n <- t.good_n + 1 else t.bad_n <- t.bad_n + 1;
    let cutoff = Int64.sub t.newest t.horizon in
    t.events <- List.filter (fun (s, _) -> Int64.compare s cutoff >= 0) t.events;
    evaluate t
end

type slo_op = Advance of int * int | Record of int * bool | Evaluate

let gen_slo_case =
  QCheck.Gen.(
    let window small =
      oneof [ return 1L; map Int64.of_int (int_range 1 small); return Int64.max_int ]
    in
    let rule i =
      let* long = window 5_000 in
      let* short =
        oneof [ return long; return 1L; map (fun s -> Int64.min s long) (window 500) ]
      in
      let* burn_threshold = oneofl [ 0.5; 1.0; 2.0; 5.0; 10.0 ] in
      return
        {
          Telemetry.Slo.rule_name = "r" ^ string_of_int i;
          long_window = long;
          short_window = short;
          burn_threshold;
        }
    in
    let* clocks = int_range 1 3 in
    let* target = oneofl [ 0.5; 0.9; 0.99; 0.999 ] in
    let* period = int_range 1 200_000 in
    let* rules =
      oneof
        [ return None; (let* n = int_range 1 3 in map Option.some (flatten_l (List.init n rule))) ]
    in
    let* bad_weight = int_range 0 4 in
    let core = int_range 0 (clocks - 1) in
    let op =
      frequency
        [
          ( 3,
            map2
              (fun c d -> Advance (c, d))
              core
              (oneof [ int_bound 3; int_bound 300; int_bound 5_000 ]) );
          ( 6,
            map2
              (fun c good -> Record (c, good))
              core
              (frequency [ (4, return true); (bad_weight, return false) ]) );
          (1, return Evaluate);
        ]
    in
    let* ops = list_size (int_range 0 300) op in
    return (clocks, target, period, rules, ops))

let print_slo_case (clocks, target, period, rules, ops) =
  let rule (r : Telemetry.Slo.rule) =
    Printf.sprintf "%s(%Ld,%Ld,%g)" r.rule_name r.long_window r.short_window r.burn_threshold
  in
  let op = function
    | Advance (c, d) -> Printf.sprintf "+%d@%d" d c
    | Record (c, g) -> Printf.sprintf "%s@%d" (if g then "ok" else "BAD") c
    | Evaluate -> "eval"
  in
  Printf.sprintf "clocks=%d target=%g period=%d rules=%s ops=[%s]" clocks target period
    (match rules with None -> "default" | Some l -> String.concat ";" (List.map rule l))
    (String.concat " " (List.map op ops))

(* Sliding windows are exact: after every event or bare [evaluate], on
   up to three per-core clocks whose stamps interleave out of order,
   every observable agrees with the list model. *)
let slo_agrees (clocks, target, period, rules, ops) =
  let clks = Array.init clocks (fun _ -> Cycles.Clock.create ()) in
  let hub = Telemetry.Hub.create ~clock:clks.(0) () in
  let period = Int64.of_int period in
  let slo = Telemetry.Slo.create ~hub ~name:"diff" ~target ?rules ~period () in
  let rules = match rules with Some r -> r | None -> Telemetry.Slo.default_rules ~period in
  let m = Slo_model.create ~target rules in
  let same () =
    List.for_all
      (fun (rs : Slo_model.rule_state) ->
        let rule = rs.rule.rule_name in
        Telemetry.Slo.burn_rate slo ~rule
        = (Slo_model.burn_over m rs.rule.long_window, Slo_model.burn_over m rs.rule.short_window)
        && Telemetry.Slo.rule_alerting slo ~rule = rs.active)
      m.rules
    && Telemetry.Slo.alerts_fired slo = m.fired
    && Telemetry.Slo.alerts_cleared slo = m.cleared
    && Telemetry.Slo.peak_burn slo
       = List.fold_left (fun acc (rs : Slo_model.rule_state) -> Float.max acc rs.peak) 0.0 m.rules
    && Telemetry.Slo.good_count slo = m.good_n
    && Telemetry.Slo.bad_count slo = m.bad_n
  in
  List.for_all
    (fun op ->
      (match op with
      | Advance (c, d) -> Cycles.Clock.advance_int clks.(c) d
      | Record (c, good) ->
          Telemetry.Hub.set_clock hub clks.(c);
          Telemetry.Slo.record slo ~good;
          Slo_model.record m (Cycles.Clock.now clks.(c)) ~good
      | Evaluate ->
          Telemetry.Slo.evaluate slo;
          Slo_model.evaluate m);
      same ())
    ops

let prop_slo_matches_model =
  QCheck.Test.make ~name:"sliding windows match the list model" ~count:500
    (QCheck.make ~print:print_slo_case gen_slo_case)
    slo_agrees

let test_slo_record_allocation () =
  (* A deterministic count, not a timing. The slow rule's long window is
     period/20 = 10,000 cycles, so at one event per 10 cycles it holds
     ~1,000 events; a rescan or a copy of the window would show as
     thousands of words per event. *)
  let clk = Cycles.Clock.create () in
  let hub = Telemetry.Hub.create ~clock:clk () in
  let slo = Telemetry.Slo.create ~hub ~name:"budget" ~target:0.99 ~period:200_000L () in
  let feed n =
    for i = 1 to n do
      Cycles.Clock.advance_int clk 10;
      Telemetry.Slo.record slo ~good:(i mod 200 <> 0)
    done
  in
  feed 5_000;
  let w0 = Gc.minor_words () in
  feed 2_000;
  let per_event = (Gc.minor_words () -. w0) /. 2_000.0 in
  Alcotest.(check int) "no alert fired" 0 (Telemetry.Slo.alerts_fired slo);
  if per_event > 200.0 then
    Alcotest.failf "%.0f minor words per Slo.record (budget 200)" per_event

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
          Alcotest.test_case "native invocations tile and report restore kind" `Quick
            test_native_tiles_and_restore_kind;
          Alcotest.test_case "with_span is exception-safe" `Quick
            test_with_span_exception_safe;
          Alcotest.test_case "sink capacity drops excess" `Quick test_sink_capacity_drops;
          Alcotest.test_case "sink keeps the first items opened" `Quick
            test_sink_keeps_first_opened;
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
          Alcotest.test_case "bytes pinned by fixtures" `Quick test_exporter_bytes_pinned;
          Alcotest.test_case "%.3f fast path at ties and past its range" `Quick
            test_fixed3_edges;
          QCheck_alcotest.to_alcotest prop_fixed3_cycles;
          QCheck_alcotest.to_alcotest prop_chrome_matches_reference;
          Alcotest.test_case "reference scripts reach every path" `Quick
            test_reference_scripts_cover;
          Alcotest.test_case "allocation budget: chrome export" `Quick
            test_chrome_allocation_budget;
          QCheck_alcotest.to_alcotest prop_sink_matches_reference;
          Alcotest.test_case "sink scripts reach every path" `Quick test_sink_scripts_cover;
          Alcotest.test_case "allocation budget: span recording" `Quick
            test_span_allocation_budget;
        ] );
      ( "integration",
        [
          Alcotest.test_case "span stamps monotone" `Quick test_span_stamps_monotone;
          Alcotest.test_case "one attach point" `Quick test_one_attach_point;
          Alcotest.test_case "one set of counters" `Quick test_counter_contract;
          Alcotest.test_case "one write path" `Quick test_one_write_path;
          Alcotest.test_case "CoW root span on the shell's home core" `Quick
            test_cow_root_span_on_home_core;
          Alcotest.test_case "gateway route spans on the serving core" `Quick
            test_gateway_route_on_serving_core;
          Alcotest.test_case "a hub attaches on the current core" `Quick
            test_attach_on_current_core;
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
          Alcotest.test_case "id_of_string takes exactly 16 hex digits" `Quick
            test_id_of_string_strict;
          QCheck_alcotest.to_alcotest prop_id_round_trip;
          Alcotest.test_case "chrome flows join the tracer's ids only" `Quick
            test_chrome_flows_need_tracer_ids;
        ] );
      ( "slo",
        [
          Alcotest.test_case "burn-rate alert fires and clears" `Quick
            test_slo_fire_and_clear;
          Alcotest.test_case "latency objective" `Quick test_slo_latency_objective;
          QCheck_alcotest.to_alcotest prop_slo_matches_model;
          Alcotest.test_case "allocation budget: record" `Quick test_slo_record_allocation;
          Alcotest.test_case "percentile table slo verdict" `Quick
            test_percentile_table_slo_verdict;
        ] );
    ]
