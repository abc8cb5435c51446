(* Tests for the virtual clock, RNG determinism, and the cost model. *)

open Cycles

let test_clock_starts_at_zero () =
  let c = Clock.create () in
  Alcotest.(check int64) "cycle 0" 0L (Clock.now c)

let test_clock_advance () =
  let c = Clock.create () in
  Clock.advance c 100L;
  Clock.advance_int c 23;
  Alcotest.(check int64) "advances accumulate" 123L (Clock.now c)

let test_clock_conversions () =
  let c = Clock.create () in
  (* 2.69 GHz: 2690 cycles = 1 us *)
  Alcotest.(check (float 1e-9)) "to_us" 1.0 (Clock.to_us c 2690L);
  Alcotest.(check (float 1e-9)) "to_us 0" 0.0 (Clock.to_us c 0L)

let test_clock_elapsed () =
  let c = Clock.create () in
  Clock.advance c 50L;
  let start = Clock.now c in
  Clock.advance c 25L;
  Alcotest.(check int64) "elapsed" 25L (Clock.elapsed_since c start)

let test_clock_default_freq () =
  let c = Clock.create () in
  Alcotest.(check (float 1e-9)) "tinker frequency" 2.69 (Clock.freq_ghz c)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_float_bounds () =
  let r = Rng.create ~seed:8 in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  (* children and parent produce different streams *)
  let equal_count = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 parent = Rng.int64 child then incr equal_count
  done;
  Alcotest.(check bool) "split streams diverge" true (!equal_count < 5)

let test_gaussian_moments () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian r in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (abs_float mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (abs_float (var -. 1.0) < 0.1)

let test_jitter_preserves_scale () =
  let r = Rng.create ~seed:12 in
  let base = 10_000 in
  let n = 5000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Costs.jitter r ~pct:0.05 base
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* lognormal with mu = -sigma^2/2 has mean 1, so the average is ~base *)
  Alcotest.(check bool)
    (Printf.sprintf "mean %.0f within 3%% of %d" mean base)
    true
    (abs_float (mean -. float_of_int base) < 0.03 *. float_of_int base)

let test_jitter_zero () =
  let r = Rng.create ~seed:13 in
  Alcotest.(check int) "zero stays zero" 0 (Costs.jitter r ~pct:0.5 0)

let test_jitter_nonnegative () =
  let r = Rng.create ~seed:14 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "nonnegative" true (Costs.jitter r ~pct:0.9 5 >= 0)
  done

let test_memcpy_cost_16mb () =
  (* Figure 12: a 16 MB image costs ~2.3 ms at 6.7-6.8 GB/s. *)
  let cycles = Costs.memcpy_cost (16 * 1024 * 1024) in
  let clock = Clock.create () in
  let ms = Clock.to_us clock (Int64.of_int cycles) /. 1e3 in
  Alcotest.(check bool) (Printf.sprintf "16MB copy = %.2f ms in [2.0, 2.8]" ms) true
    (ms > 2.0 && ms < 2.8)

let test_memcpy_cost_monotone () =
  Alcotest.(check bool) "monotone" true (Costs.memcpy_cost 1000 < Costs.memcpy_cost 2000)

let test_table1_paging_dominates () =
  (* Table 1 ordering: paging > protected transition > lgdt > long
     transition > jumps > first instruction. *)
  let paging = (514 * Costs.mem_cold) + Costs.ept_build in
  Alcotest.(check bool) "paging most expensive" true (paging > Costs.protected_transition);
  Alcotest.(check bool) "prot > lgdt is false (lgdt 4118 > 3217)" true
    (Costs.lgdt32 > Costs.protected_transition);
  Alcotest.(check bool) "long transition below prot" true
    (Costs.long_transition < Costs.protected_transition);
  Alcotest.(check bool) "jumps are negligible" true
    (Costs.ljmp32 < Costs.long_transition && Costs.ljmp64 < Costs.long_transition);
  Alcotest.(check bool) "first instruction cheapest" true
    (Costs.first_instruction < Costs.ljmp32)

let test_paging_near_paper_value () =
  (* Table 1 reports 28109 cycles for the identity map. *)
  let paging = (514 * Costs.mem_cold) + Costs.ept_build in
  Alcotest.(check bool)
    (Printf.sprintf "paging %d within 15%% of 28109" paging)
    true
    (abs_float (float_of_int paging -. 28109.0) < 0.15 *. 28109.0)

let test_vmrun_magnitude () =
  (* The vmrun lower bound must sit well below pthread creation and far
     below process creation (Figure 2). *)
  let vmrun = Costs.ioctl_syscall + Costs.kvm_run_checks + Costs.vmentry + Costs.vmexit in
  Alcotest.(check bool) "vmrun < pthread" true (vmrun < Costs.pthread_spawn_join);
  Alcotest.(check bool) "pthread < kvm create" true
    (Costs.pthread_spawn_join < Costs.kvm_create_vm);
  Alcotest.(check bool) "kvm create < process" true (Costs.kvm_create_vm < Costs.process_spawn)

let () =
  Alcotest.run "cycles"
    [
      ( "clock",
        [
          Alcotest.test_case "starts at zero" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "conversions" `Quick test_clock_conversions;
          Alcotest.test_case "elapsed" `Quick test_clock_elapsed;
          Alcotest.test_case "default frequency" `Quick test_clock_default_freq;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        ] );
      ( "costs",
        [
          Alcotest.test_case "jitter preserves scale" `Quick test_jitter_preserves_scale;
          Alcotest.test_case "jitter zero" `Quick test_jitter_zero;
          Alcotest.test_case "jitter nonnegative" `Quick test_jitter_nonnegative;
          Alcotest.test_case "memcpy 16MB ~2.3ms" `Quick test_memcpy_cost_16mb;
          Alcotest.test_case "memcpy monotone" `Quick test_memcpy_cost_monotone;
          Alcotest.test_case "table1 ordering" `Quick test_table1_paging_dominates;
          Alcotest.test_case "paging near 28109" `Quick test_paging_near_paper_value;
          Alcotest.test_case "figure2 ordering" `Quick test_vmrun_magnitude;
        ] );
    ]
