(* The multi-core scheduler (Dessim.Cores), the Scheduled reclaim path
   through Wasp.Runtime/Wasp.Pool, and the closed-loop multi-core load
   generator. *)

module C = Dessim.Cores
module R = Wasp.Runtime

let mk_clocks n = Array.init n (fun _ -> Cycles.Clock.create ())

(* ------------------------------------------------------------------ *)
(* Scheduling core                                                      *)
(* ------------------------------------------------------------------ *)

(* A small closed-loop workload: every task burns a deterministic number
   of cycles and respawns itself a few times, exercising arrivals in the
   future, cross-core interleaving and submit-during-run. Returns the
   observable end state. *)
let run_workload n_cores =
  let clocks = mk_clocks n_cores in
  let sched = C.create clocks in
  let rec job gen ~core =
    Cycles.Clock.advance_int clocks.(core) (100 + (37 * gen));
    if gen < 4 then
      C.submit sched
        ~at:(Int64.add (Cycles.Clock.now clocks.(core)) 25L)
        (job (gen + 1))
  in
  (* round-robin placement: root [i] lands on core [i mod n_cores] *)
  for i = 0 to 19 do
    C.submit sched ~at:(Int64.of_int (i * 10)) (job 0)
  done;
  C.run sched;
  let finals = Array.map Cycles.Clock.now clocks in
  let per_core = Array.map (fun s -> s.C.executed) (C.core_stats sched) in
  (finals, per_core, C.executed sched, C.steals sched)

let test_deterministic () =
  let a = run_workload 4 and b = run_workload 4 in
  Alcotest.(check (array int64)) "same final clocks" (let f, _, _, _ = a in f)
    (let f, _, _, _ = b in f);
  Alcotest.(check (array int)) "same per-core executed"
    (let _, p, _, _ = a in p)
    (let _, p, _, _ = b in p);
  Alcotest.(check int) "same steals" (let _, _, _, s = a in s)
    (let _, _, _, s = b in s)

let test_all_tasks_execute () =
  let _, per_core, executed, _ = run_workload 4 in
  (* 20 roots, each respawning 4 times *)
  Alcotest.(check int) "every task ran exactly once" 100 executed;
  Alcotest.(check int) "per-core counts sum to total" 100
    (Array.fold_left ( + ) 0 per_core)

let test_steal_conservation () =
  let clocks = mk_clocks 4 in
  let sched = C.create clocks in
  (* round-robin placement gives core 0 every fourth task, and those are
     the heavy ones: the other cores drain their light queues and must
     steal core 0's work, losing none *)
  for i = 0 to 199 do
    let cost = if i mod 4 = 0 then 5_000 else 10 in
    C.submit sched (fun ~core -> Cycles.Clock.advance_int clocks.(core) cost)
  done;
  C.run sched;
  Alcotest.(check int) "submitted" 200 (C.submitted sched);
  Alcotest.(check int) "executed == submitted" 200 (C.executed sched);
  Alcotest.(check bool) "stealing happened" true (C.steals sched > 0);
  let per_core = C.core_stats sched in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool) (Printf.sprintf "core %d did work" i) true (s.C.executed > 0))
    per_core

let test_idle_accounting () =
  let clocks = mk_clocks 1 in
  let budgets = ref [] in
  let sched =
    C.create
      ~idle:(fun ~core:_ ~budget ->
        budgets := budget :: !budgets;
        min budget 300)
      clocks
  in
  C.submit sched ~at:1000L (fun ~core -> Cycles.Clock.advance_int clocks.(core) 50);
  C.run sched;
  let s = (C.core_stats sched).(0) in
  Alcotest.(check int64) "idle window" 1000L s.C.idle_cycles;
  Alcotest.(check int64) "busy is the task's own charge" 50L s.C.busy_cycles;
  Alcotest.(check int64) "reclaim capped by hook's return" 300L s.C.reclaim_cycles;
  Alcotest.(check (list int)) "hook offered the whole window" [ 1000 ] !budgets;
  Alcotest.(check int64) "clock covers idle + busy" 1050L (Cycles.Clock.now clocks.(0))

let test_utilization_bounds () =
  let clocks = mk_clocks 2 in
  let sched = C.create clocks in
  (* the first task lands on core 0; core 1 could steal it but starts
     no earlier, and ties go to the lower core *)
  C.submit sched ~at:100L (fun ~core ->
      Cycles.Clock.advance_int clocks.(core) 900);
  C.run sched;
  Alcotest.(check (float 1e-9)) "busy/(busy+idle)" 0.9 (C.utilization sched ~core:0);
  Alcotest.(check (float 1e-9)) "untouched core reports 0" 0.0
    (C.utilization sched ~core:1)

let test_submit_validation () =
  let sched = C.create (mk_clocks 2) in
  Alcotest.check_raises "negative release time"
    (Invalid_argument "Cores.submit: negative time") (fun () ->
      C.submit sched ~at:(-1L) (fun ~core:_ -> ()));
  Alcotest.check_raises "no clocks"
    (Invalid_argument "Cores.create: need at least one clock") (fun () ->
      ignore (C.create [||]))

(* ------------------------------------------------------------------ *)
(* Scheduled reclaim through the runtime                                *)
(* ------------------------------------------------------------------ *)

let hlt_image = Wasp.Image.of_asm_string ~name:"hlt" ~mode:Vm.Modes.Real "hlt"

(* A one-core runtime with a hub attached, so its pool publishes the
   [wasp_pool_reclaim_depth] gauge: shells awaiting a deferred clean. *)
let reclaim_runtime () =
  let w = R.create ~clean:`Async ~cores:1 () in
  let hub = Telemetry.Hub.create ~clock:(R.clock w) () in
  R.set_telemetry w (Some hub);
  let depth () =
    int_of_float (Series.gauge (Telemetry.Hub.metrics hub) "wasp_pool_reclaim_depth")
  in
  (w, depth)

let test_scheduled_stall_and_drain () =
  let w, depth = reclaim_runtime () in
  R.set_reclaim_policy w Wasp.Pool.Scheduled;
  ignore (R.run w hlt_image ());
  Alcotest.(check int) "released shell queued, not cached" 1 (depth ());
  let r2 = R.run w hlt_image () in
  let ps = R.pool_stats w in
  Alcotest.(check bool) "stalled acquire still a pool hit" true r2.R.from_pool;
  Alcotest.(check int) "one clean stall" 1 ps.Wasp.Pool.clean_stalls;
  Alcotest.(check bool) "stall cost charged" true (ps.Wasp.Pool.stall_cycles > 0L);
  (* the second run's release queued the shell again; idle cycles finish it *)
  Alcotest.(check int) "queued again" 1 (depth ());
  let spent = R.drain_reclaim w ~core:0 ~budget:max_int in
  Alcotest.(check bool) "drain did work" true (spent > 0);
  Alcotest.(check int) "queue empty" 0 (depth ());
  let r3 = R.run w hlt_image () in
  Alcotest.(check bool) "drained shell served from cache" true r3.R.from_pool;
  Alcotest.(check int) "no further stall" 1 (R.pool_stats w).Wasp.Pool.clean_stalls

let test_eager_async_never_stalls () =
  let w, depth = reclaim_runtime () in
  ignore (R.run w hlt_image ());
  let r2 = R.run w hlt_image () in
  Alcotest.(check bool) "pool hit" true r2.R.from_pool;
  Alcotest.(check int) "eager policy keeps up" 0 (R.pool_stats w).Wasp.Pool.clean_stalls;
  Alcotest.(check int) "nothing queued" 0 (depth ())

let test_drain_partial_progress () =
  (* a tiny budget makes no full clean, but the spent cycles carry over *)
  let w, depth = reclaim_runtime () in
  R.set_reclaim_policy w Wasp.Pool.Scheduled;
  ignore (R.run w hlt_image ());
  let spent1 = R.drain_reclaim w ~core:0 ~budget:10 in
  Alcotest.(check int) "spends the whole small budget" 10 spent1;
  Alcotest.(check int) "shell still queued" 1 (depth ());
  let spent2 = R.drain_reclaim w ~core:0 ~budget:max_int in
  Alcotest.(check bool) "remainder smaller than a full clean" true (spent2 > 0);
  Alcotest.(check int) "finished" 0 (depth ())

(* ------------------------------------------------------------------ *)
(* Sharded pool                                                         *)
(* ------------------------------------------------------------------ *)

(* A KVM system with a hub attached, so a pool over it publishes its
   [wasp_pool_size*] gauges; [size name] reads one. *)
let hubbed_system ?cores ?seed () =
  let sys = Kvmsim.Kvm.open_dev ?cores ?seed () in
  let hub = Telemetry.Hub.create ~clock:(Kvmsim.Kvm.clock sys) () in
  Kvmsim.Kvm.set_telemetry sys (Some hub);
  (sys, fun name -> int_of_float (Series.gauge (Telemetry.Hub.metrics hub) name))

let test_pool_lru_eviction () =
  let sys, size = hubbed_system ~seed:7 () in
  let pool = Wasp.Pool.create ~capacity:2 sys ~clean:Wasp.Pool.Sync in
  let acquire () = fst (Wasp.Pool.acquire pool ~mem_size:65536 ~mode:Vm.Modes.Real) in
  let s1 = acquire () and s2 = acquire () and s3 = acquire () in
  Wasp.Pool.release pool s1;
  Wasp.Pool.release pool s2;
  Wasp.Pool.release pool s3;
  Alcotest.(check int) "bounded by capacity" 2 (size "wasp_pool_size");
  Alcotest.(check int) "oldest evicted" 1 (Wasp.Pool.stats pool).Wasp.Pool.evicted

let test_pool_capacity_validated () =
  let sys = Kvmsim.Kvm.open_dev () in
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Pool.create: capacity must be >= 1") (fun () ->
      ignore (Wasp.Pool.create ~capacity:0 sys ~clean:Wasp.Pool.Sync))

let test_pool_shards_per_core () =
  let sys, size = hubbed_system ~cores:3 () in
  let pool = Wasp.Pool.create sys ~clean:Wasp.Pool.Sync in
  for core = 0 to 2 do
    Kvmsim.Kvm.set_core sys core;
    let s, _ = Wasp.Pool.acquire pool ~mem_size:65536 ~mode:Vm.Modes.Real in
    Alcotest.(check int) (Printf.sprintf "home is creating core %d" core) core
      s.Wasp.Pool.home;
    Wasp.Pool.release pool s
  done;
  Alcotest.(check (list int)) "one shell per shard" [ 1; 1; 1 ]
    (List.init 3 (fun core -> size (Printf.sprintf "wasp_pool_size_core%d" core)))

(* ------------------------------------------------------------------ *)
(* Multi-core load generation                                           *)
(* ------------------------------------------------------------------ *)

let burst_profile n =
  [
    { Serverless.Loadgen.duration_s = 0.01; clients = 2 * n };
    { Serverless.Loadgen.duration_s = 0.03; clients = 3 * n };
    { Serverless.Loadgen.duration_s = 0.01; clients = 1 };
  ]

let tail_p99 buckets =
  List.fold_left
    (fun acc b ->
      match b.Serverless.Loadgen.p99_ms with
      | None -> acc
      | Some v -> ( match acc with None -> Some v | Some a -> Some (max a v)))
    None buckets

let run_arm ~cores ~clean =
  let w = R.create ~seed:0x5EDC ~clean ~cores () in
  let base = Wasp.Image.of_asm_string ~name:"hlt-mc" ~mode:Vm.Modes.Real "hlt" in
  let img = Wasp.Image.pad_to base (1024 * 1024) in
  let request () = ignore (R.run w img ()) in
  request ();
  let buckets, sched =
    Serverless.Loadgen.run_cores ~think_time_s:0.00075 ~runtime:w ~request
      ~profile:(burst_profile cores) ()
  in
  let completed =
    List.fold_left (fun a b -> a + b.Serverless.Loadgen.completed) 0 buckets
  in
  (completed, tail_p99 buckets, sched)

let test_run_cores_throughput_scales () =
  let c1, _, _ = run_arm ~cores:1 ~clean:`Sync in
  let c4, _, sched = run_arm ~cores:4 ~clean:`Sync in
  Alcotest.(check bool)
    (Printf.sprintf "4 cores (%d) beat 1 core (%d)" c4 c1)
    true
    (c4 > c1);
  Alcotest.(check int) "no submitted task lost" (C.submitted sched) (C.executed sched)

let test_run_cores_async_beats_sync_p99 () =
  let _, sync_p99, _ = run_arm ~cores:2 ~clean:`Sync in
  let _, async_p99, _ = run_arm ~cores:2 ~clean:`Async in
  match (sync_p99, async_p99) with
  | Some s, Some a ->
      Alcotest.(check bool)
        (Printf.sprintf "async p99 %.3f < sync p99 %.3f" a s)
        true (a < s)
  | _ -> Alcotest.fail "expected latency samples in both arms"

let test_run_cores_deterministic () =
  let go () =
    let c, p99, sched = run_arm ~cores:2 ~clean:`Async in
    (c, p99, C.steals sched)
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "same-seed runs agree" true (a = b)

let () =
  Alcotest.run "sched"
    [
      ( "cores",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "all tasks execute" `Quick test_all_tasks_execute;
          Alcotest.test_case "steal conservation" `Quick test_steal_conservation;
          Alcotest.test_case "idle accounting" `Quick test_idle_accounting;
          Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
          Alcotest.test_case "submit validation" `Quick test_submit_validation;
        ] );
      ( "reclaim",
        [
          Alcotest.test_case "scheduled stall and drain" `Quick
            test_scheduled_stall_and_drain;
          Alcotest.test_case "eager never stalls" `Quick test_eager_async_never_stalls;
          Alcotest.test_case "drain partial progress" `Quick test_drain_partial_progress;
        ] );
      ( "pool",
        [
          Alcotest.test_case "lru eviction" `Quick test_pool_lru_eviction;
          Alcotest.test_case "capacity validated" `Quick test_pool_capacity_validated;
          Alcotest.test_case "shards per core" `Quick test_pool_shards_per_core;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "throughput scales with cores" `Quick
            test_run_cores_throughput_scales;
          Alcotest.test_case "async beats sync p99" `Quick
            test_run_cores_async_beats_sync_p99;
          Alcotest.test_case "deterministic" `Quick test_run_cores_deterministic;
        ] );
    ]
