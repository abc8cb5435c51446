(* The artifact-evaluation suite: the paper's major claims C1-C8
   (Artifact Appendix A.4.1), each asserted as an automated test with
   reduced trial counts. `bench/main.exe` prints the full tables; this
   suite fails CI if a code change breaks a claim's shape. *)

let mean_of f n = Stats.Descriptive.mean (Array.init n (fun _ -> Int64.to_float (f ())))

(* C1: the core components of virtual context creation comprise only a
   few tens of thousands of cycles (Table 1). *)
let test_c1_boot_cost () =
  let rng = Cycles.Rng.create ~seed:1 in
  let totals =
    Array.init 50 (fun _ ->
        let mem = Vm.Memory.create ~size:(64 * 1024) in
        let clock = Cycles.Clock.create () in
        float_of_int
          (Vm.Boot.total_cost (Vm.Boot.perform ~mem ~clock ~rng ~target:Vm.Modes.Long)))
  in
  let mean = Stats.Descriptive.mean totals in
  Alcotest.(check bool)
    (Printf.sprintf "long boot %.0f cycles in tens of thousands" mean)
    true
    (mean > 10_000.0 && mean < 100_000.0);
  (* the paging identity map dominates *)
  let mem = Vm.Memory.create ~size:(64 * 1024) in
  let comps =
    Vm.Boot.perform ~mem ~clock:(Cycles.Clock.create ()) ~rng ~target:Vm.Modes.Long
  in
  let cost name = (List.find (fun c -> c.Vm.Boot.name = name) comps).Vm.Boot.cycles in
  List.iter
    (fun other ->
      Alcotest.(check bool)
        (Printf.sprintf "paging > %s" other)
        true
        (cost "paging ident. map" > cost other))
    [ "protected transition"; "long transition"; "load 32-bit gdt"; "first instruction" ]

(* C2: function latency varies with processor mode; cheaper modes are an
   optimization opportunity (Figure 3). *)
let test_c2_mode_latency () =
  let fib = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }" in
  let cost mode =
    let c = Vcc.Compile.compile ~snapshot:false ~mode fib in
    let w = Wasp.Runtime.create ~pool:false ~seed:2 () in
    mean_of
      (fun () -> (Vcc.Compile.invoke w c "fib" [ 12L ] ()).Wasp.Runtime.cycles)
      20
  in
  let real = cost Vm.Modes.Real and long = cost Vm.Modes.Long in
  Alcotest.(check bool)
    (Printf.sprintf "real %.0f < long %.0f by ~10K+" real long)
    true
    (long -. real > 10_000.0)

(* C3: a minimal-environment server answers in <1 ms (Figure 4). *)
let test_c3_echo_sub_ms () =
  let w = Wasp.Runtime.create ~seed:3 ~clean:`Async () in
  let compiled = Vhttp.Echo.compile () in
  ignore (Vhttp.Echo.run_once w compiled ~payload:"warm");
  let ms, _ = Vhttp.Echo.run_once w compiled ~payload:"GET / HTTP/1.0\r\n\r\n" in
  let us = Cycles.Clock.to_us (Wasp.Runtime.clock w) ms.Vhttp.Echo.send_done in
  Alcotest.(check bool) (Printf.sprintf "%.0f us < 1000" us) true (us < 1000.0)

(* C4: Wasp's creation latencies approach the vmrun hardware limit
   (Figure 8). *)
let test_c4_wasp_near_hardware_limit () =
  let sys = Kvmsim.Kvm.open_dev ~seed:4 () in
  let floor = Baselines.Contexts.Vmrun_floor.prepare sys in
  let vmrun = mean_of (fun () -> Baselines.Contexts.Vmrun_floor.measure floor) 100 in
  let w = Wasp.Runtime.create ~seed:4 ~clean:`Async () in
  let img = Wasp.Image.of_asm_string ~name:"hlt" ~mode:Vm.Modes.Real "hlt" in
  ignore (Wasp.Runtime.run w img ());
  let wasp_ca = mean_of (fun () -> (Wasp.Runtime.run w img ()).Wasp.Runtime.cycles) 100 in
  Alcotest.(check bool)
    (Printf.sprintf "Wasp+CA %.0f within 25%% of vmrun %.0f" wasp_ca vmrun)
    true
    (wasp_ca < 1.25 *. vmrun);
  let pthread = mean_of (fun () -> Baselines.Contexts.pthread_create_join sys) 100 in
  Alcotest.(check bool) "beats pthread" true (wasp_ca < pthread)

(* C5: creation overheads amortize with ~100 us of work; snapshotting
   pushes the amortization point down (Figure 11). *)
let test_c5_amortization () =
  let fib = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }" in
  let compiled = Vcc.Compile.compile fib in
  let w = Wasp.Runtime.create ~seed:5 ~clean:`Async () in
  let native_clock = Cycles.Clock.create () in
  let arm n =
    ignore (Vcc.Compile.invoke w compiled "fib" [ Int64.of_int n ] ());
    let virt =
      mean_of
        (fun () -> (Vcc.Compile.invoke w compiled "fib" [ Int64.of_int n ] ()).Wasp.Runtime.cycles)
        10
    in
    let nat =
      mean_of
        (fun () ->
          let t0 = Cycles.Clock.now native_clock in
          ignore (Vcc.Compile.invoke_native ~clock:native_clock compiled "fib" [ Int64.of_int n ] ());
          Cycles.Clock.elapsed_since native_clock t0)
        10
    in
    virt /. nat
  in
  let small = arm 5 and large = arm 18 in
  Alcotest.(check bool)
    (Printf.sprintf "slowdown falls: fib(5) %.1fx -> fib(18) %.2fx" small large)
    true
    (small > 2.0 && large < 1.3)

(* C6: start-up becomes memory-bandwidth bound at ~2 MB image size
   (Figure 12). *)
let test_c6_memory_bound () =
  let base = Wasp.Image.of_asm_string ~name:"h" ~mode:Vm.Modes.Real "hlt" in
  let w = Wasp.Runtime.create ~seed:6 ~clean:`Async () in
  let startup size =
    let img = Wasp.Image.pad_to base size in
    ignore (Wasp.Runtime.run w img ());
    mean_of (fun () -> (Wasp.Runtime.run w img ()).Wasp.Runtime.cycles) 10
  in
  let at_2mb = startup (2 * 1024 * 1024) in
  let at_8mb = startup (8 * 1024 * 1024) in
  (* bandwidth-bound: 4x the bytes ~= 4x the cycles (within 25%) *)
  let ratio = at_8mb /. at_2mb in
  Alcotest.(check bool) (Printf.sprintf "scaling ratio %.2f ~ 4" ratio) true
    (ratio > 3.0 && ratio < 5.0);
  (* implied bandwidth in the 6-8 GB/s range at 8MB *)
  let gbps = 8.0 *. 1024.0 *. 1024.0 /. (at_8mb /. 2.69) in
  Alcotest.(check bool) (Printf.sprintf "%.1f GB/s near memcpy" gbps) true
    (gbps > 5.0 && gbps < 8.5)

(* C7: the virtine HTTP server loses <20% throughput vs native
   (Figure 13; throughput ~ 1/service under closed loop). *)
let test_c7_http_throughput () =
  let conn = 650_000.0 in
  let native_env = Wasp.Hostenv.create () in
  let path = Vhttp.Fileserver.add_default_files native_env in
  let clock = Cycles.Clock.create () in
  let rng = Cycles.Rng.create ~seed:7 in
  let native =
    mean_of
      (fun () ->
        (Vhttp.Fileserver.serve_native ~env:native_env ~clock ~rng ~path).Vhttp.Fileserver.cycles)
      50
    +. conn
  in
  let w = Wasp.Runtime.create ~seed:7 ~clean:`Async () in
  let vpath = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let compiled = Vhttp.Fileserver.compile ~snapshot:true in
  ignore (Vhttp.Fileserver.serve_virtine w compiled ~path:vpath);
  let virt =
    mean_of
      (fun () -> (Vhttp.Fileserver.serve_virtine w compiled ~path:vpath).Vhttp.Fileserver.cycles)
      50
    +. conn
  in
  let tput_drop = 1.0 -. (native /. virt) in
  Alcotest.(check bool)
    (Printf.sprintf "throughput drop %.0f%% < 20%%" (tput_drop *. 100.0))
    true
    (tput_drop < 0.20)

(* C8: JS virtines cost <2x native; snapshotting helps when setup is
   non-trivial (Figure 14). *)
let test_c8_js_slowdown () =
  let input = Vjs.Workload.make_input ~size:512 in
  let clock = Cycles.Clock.create () in
  let baseline =
    mean_of
      (fun () -> (Vjs.Workload.run_baseline ~clock ~input).Vjs.Workload.latency_cycles)
      10
  in
  let isolate ~snapshot ~teardown w ~key =
    Vjs.Isolate.create ~snapshot ~teardown w ~key ~source:Vjs.Workload.base64_js_source
      ~entry:"encode"
  in
  let cycles iso =
    match Vjs.Workload.run_virtine iso ~input with
    | Ok _, c -> c
    | Error e, _ -> Alcotest.fail e
  in
  let plain_iso =
    isolate ~snapshot:false ~teardown:true
      (Wasp.Runtime.create ~seed:8 ~pool:false ~clean:`Async ())
      ~key:"c8"
  in
  let plain = mean_of (fun () -> cycles plain_iso) 10 in
  let snap_iso =
    isolate ~snapshot:true ~teardown:false (Wasp.Runtime.create ~seed:8 ~clean:`Async ()) ~key:"c8s"
  in
  ignore (cycles snap_iso);
  let snap_nt = mean_of (fun () -> cycles snap_iso) 10 in
  Alcotest.(check bool)
    (Printf.sprintf "plain virtine %.2fx < 2x" (plain /. baseline))
    true
    (plain /. baseline < 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "snapshot+NT %.2fx < plain %.2fx" (snap_nt /. baseline) (plain /. baseline))
    true
    (snap_nt < plain)

let () =
  Alcotest.run "claims"
    [
      ( "artifact-appendix",
        [
          Alcotest.test_case "C1: boot cost tens of thousands" `Quick test_c1_boot_cost;
          Alcotest.test_case "C2: processor-mode savings" `Quick test_c2_mode_latency;
          Alcotest.test_case "C3: echo server < 1ms" `Quick test_c3_echo_sub_ms;
          Alcotest.test_case "C4: Wasp near hardware limit" `Quick test_c4_wasp_near_hardware_limit;
          Alcotest.test_case "C5: amortization" `Quick test_c5_amortization;
          Alcotest.test_case "C6: memory-bandwidth bound" `Quick test_c6_memory_bound;
          Alcotest.test_case "C7: HTTP throughput < 20% drop" `Quick test_c7_http_throughput;
          Alcotest.test_case "C8: JS slowdown < 2x" `Quick test_c8_js_slowdown;
        ] );
    ]
