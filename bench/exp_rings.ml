(* The batched-hypercall-ring study: before/after tables for the ring
   refactor over Figure 13's static-file server. (a) per-request host
   interactions — the classic handler pays seven KVM exits per request,
   the ringed handler two (one read, one ring_enter doorbell draining
   stat/open/read/write/close/exit); (b) closed-loop throughput over the
   same loopback-connection model as fig13; (c) the pipelined pool
   refill — with the shell pool disabled, a cold provision pays the full
   kvm_create_vm/memory_region/create_vcpu sequence in the request path,
   while a pre-built shell costs only the handoff.

   Gated: bench/baselines/BENCH_rings.json (benchdiff, exact). All
   figures are deterministic simulated cycles at fixed seeds. *)

type arm = { name : string; serve : unit -> Vhttp.Fileserver.served }

let make_arm ~ring name seed =
  let w = Wasp.Runtime.create ~seed () in
  let path = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let compiled =
    if ring then Vhttp.Fileserver.compile_ring ~snapshot:false
    else Vhttp.Fileserver.compile ~snapshot:false
  in
  (* warm the pool so per-request figures measure the steady state *)
  ignore (Vhttp.Fileserver.serve_virtine w compiled ~path);
  { name; serve = (fun () -> Vhttp.Fileserver.serve_virtine w compiled ~path) }

(* same loopback TCP model as exp_fig13 *)
let connection_cycles = 650_000

let throughput arm =
  let conn_rng = Cycles.Rng.create ~seed:0xC160 in
  let service ~now:_ =
    Int64.add
      (Int64.of_int (Cycles.Costs.jitter conn_rng ~pct:0.10 connection_cycles))
      (arm.serve ()).Vhttp.Fileserver.cycles
  in
  let buckets =
    Serverless.Loadgen.run ~workers:1 ~think_time_s:0.0 ~service
      ~profile:[ { Serverless.Loadgen.duration_s = 2.0; clients = 4 } ]
      ()
  in
  let rates =
    Array.of_list
      (List.filter_map
         (fun b ->
           if b.Serverless.Loadgen.rps > 0.0 then Some b.Serverless.Loadgen.rps
           else None)
         buckets)
  in
  Stats.Descriptive.harmonic_mean rates

(* (c) cold provision vs prewarmed handoff, pool disabled so every
   request provisions a shell. The prewarmed arm refills its queue
   between requests (standing in for the scheduler's idle windows —
   see Loadgen.run_cores) and advances the clock by the cycles spent,
   as the idle-hook contract requires. *)
let prewarm_arm ~prewarm seed =
  let w = Wasp.Runtime.create ~seed ~pool:false () in
  let path = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let compiled = Vhttp.Fileserver.compile_ring ~snapshot:false in
  let vi =
    match Vcc.Compile.find_virtine compiled "handle" with
    | Some vi -> vi
    | None -> failwith "exp_rings: no virtine handler"
  in
  let image = vi.Vcc.Compile.image in
  if prewarm then
    Wasp.Runtime.set_prewarm w
      (Some
         {
           Wasp.Pool.pw_mem_size = image.Wasp.Image.mem_size;
           pw_mode = image.Wasp.Image.mode;
           pw_target = 2;
         });
  fun () ->
    if prewarm then begin
      let spent = Wasp.Runtime.prewarm_step w ~core:0 ~budget:10_000_000 in
      Cycles.Clock.advance_int (Wasp.Runtime.clock w) spent
    end;
    Vhttp.Fileserver.serve_virtine w compiled ~path

let run () =
  Bench_util.header "Hypercall ring: exits per request and throughput"
    "the batched-ring refactor over Figure 13's file server (Section 5.2)";
  let classic = make_arm ~ring:false "classic (7 exits)" 0xA160 in
  let ringed = make_arm ~ring:true "ringed (2 exits)" 0xB160 in
  let arms = [ classic; ringed ] in
  (* (a) per-request host interactions: deterministic counts *)
  let shape = List.map (fun a -> (a, a.serve ())) arms in
  List.iter
    (fun ((_ : arm), s) -> assert (s.Vhttp.Fileserver.status = 200))
    shape;
  let base_cycles =
    match shape with (_, s) :: _ -> Int64.to_float s.Vhttp.Fileserver.cycles | [] -> 1.0
  in
  Bench_util.table ~fig:"rings" ~title:"per-request host interactions (warm pool)"
    ~header:
      [ "configuration"; "KVM exits/req"; "hypercalls/req"; "latency (us)"; "vs classic" ]
    (List.map
       (fun (a, s) ->
         [
           a.name;
           string_of_int s.Vhttp.Fileserver.exits;
           string_of_int s.Vhttp.Fileserver.hypercalls;
           Printf.sprintf "%.1f" (Bench_util.us_of_cycles s.Vhttp.Fileserver.cycles);
           Printf.sprintf "%.2fx" (Int64.to_float s.Vhttp.Fileserver.cycles /. base_cycles);
         ])
       shape);
  (* (b) closed-loop throughput, fig13's connection model *)
  let tputs = List.map (fun a -> (a.name, throughput a)) arms in
  let base_tput = match tputs with (_, t) :: _ -> t | [] -> 1.0 in
  Bench_util.table ~fig:"rings" ~title:"closed-loop throughput (4 clients, 2 s)"
    ~header:[ "configuration"; "throughput (req/s)"; "tput delta" ]
    (List.map
       (fun (name, t) ->
         [
           name;
           Printf.sprintf "%.0f" t;
           Printf.sprintf "%+.0f%%" ((t -. base_tput) /. base_tput *. 100.0);
         ])
       tputs);
  (* (c) cold provision vs pipelined prewarm handoff *)
  let cold = prewarm_arm ~prewarm:false 0xD160 in
  let warm = prewarm_arm ~prewarm:true 0xE160 in
  let mean serve =
    let lat = Bench_util.trials 40 (fun () -> (serve ()).Vhttp.Fileserver.cycles) in
    (Stats.Descriptive.summarize lat).Stats.Descriptive.mean
  in
  let cold_mean = mean cold in
  let warm_mean = mean warm in
  Bench_util.table ~fig:"rings" ~title:"provisioning without a pool (ringed handler)"
    ~header:[ "configuration"; "mean latency (us)"; "vs cold" ]
    [
      [ "cold shell per request"; Printf.sprintf "%.1f" (cold_mean /. Bench_util.freq_ghz /. 1e3); "1.00x" ];
      [
        "prewarmed handoff";
        Printf.sprintf "%.1f" (warm_mean /. Bench_util.freq_ghz /. 1e3);
        Printf.sprintf "%.2fx" (warm_mean /. cold_mean);
      ];
    ];
  let exits_of a = (List.assq a shape).Vhttp.Fileserver.exits in
  Printf.printf "  RINGS-SMOKE: classic_exits=%d ringed_exits=%d\n"
    (exits_of classic) (exits_of ringed);
  Bench_util.note
    "ringed request = read + one ring_enter doorbell (stat/open/read/write/close/exit";
  Bench_util.note
    "drain inside a single exit); kvm_exits_total{reason} splits the residue by cause"
