(* perf.exe: the repository's benchmark. One process runs one workload:

     perf.exe --workload NAME --seed N --seconds S --trace 0|1

   Requests arrive open-loop in virtual time (Poisson, a fixed rate per
   workload) and run on the multi-core scheduler as real work. The run
   measures host time for S seconds after set-up and checks every
   output. The last line of stdout is one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1);
   see README.md. *)

open Util

type counters = (string * float) list

type run = {
  spec : Work.t;
  env : Work.env;
  prefix : int;
  traced : bool;
  sched : Dessim.Cores.t;
  clocks : Cycles.Clock.t array;
  arrivals : Cycles.Rng.t;
  cycles_per_s : float;
  mutable next_at : float;
  mutable completed : int;
  mutable measuring : bool;
  mutable measured : int;
  mutable t_start : int;
  mutable last_id : int;
  host_us : Samples.t;  (** per measured request: host time of its task *)
  end_ns : Samples.t;  (** per measured request: completion, ns after the start *)
  sim_us : Samples.t;  (** prefix: simulated latency, due to completion *)
  wait_us : Samples.t;  (** prefix: simulated queue wait, due to start *)
  mutable service_cycles : float;  (** prefix: start to completion, summed *)
  mutable digest : string;
  mutable failed : int;
  mutable wrong : string option;
  mutable hub : Telemetry.Hub.t option;
  deployed : bool;  (** the hub is part of the workload, not added for tracing *)
  mutable spans_seen : int;
  phases : (string, float) Hashtbl.t;  (** traced: hub span cycles by phase *)
  mutable at_start : counters;
  mutable at_prefix : counters option;
  probe_ns : Samples.t;  (** speed probes during the measurement: when, ns after the start *)
  probe_v : Samples.t;  (** and their ns per calibration iteration *)
}

let us_of_cycles r c = c /. r.cycles_per_s *. 1e6

let counters r : counters =
  let w = r.env.Work.w in
  let k = Kvmsim.Kvm.stats (Wasp.Runtime.kvm w) in
  let s = Wasp.Runtime.stats w in
  let p = Wasp.Runtime.pool_stats w in
  let i = float_of_int in
  let sup_retries, sup_failed =
    match r.env.Work.supervisor with
    | Some sup ->
        let st = Wasp.Supervisor.stats sup in
        (i st.Wasp.Supervisor.retries, i st.Wasp.Supervisor.failed)
    | None -> (0.0, 0.0)
  in
  let busy, idle =
    Array.fold_left
      (fun (b, id) (c : Dessim.Cores.core_stats) ->
        (b +. Int64.to_float c.busy_cycles, id +. Int64.to_float c.idle_cycles))
      (0.0, 0.0) (Dessim.Cores.core_stats r.sched)
  in
  let gc = Gc.quick_stat () in
  [
    ("kvm.runs", i k.Kvmsim.Kvm.runs);
    ("kvm.ept", i k.ept_violations);
    ("kvm.vm_creations", i k.vm_creations);
    ("kvm.injected", i k.injected_faults);
    ("wasp.invocations", i s.Wasp.Runtime.invocations);
    ("wasp.hypercalls", i s.hypercalls);
    ("wasp.restores", i s.snapshot_restores);
    ("pool.created", i p.Wasp.Pool.created);
    ("pool.reused", i p.reused);
    ("pool.stall_cycles", Int64.to_float p.stall_cycles);
    ("snapshot.evictions", i (Wasp.Snapshot_store.evictions (Wasp.Runtime.snapshots w)));
    ("pc.hits", i (Vm.Memory.Page_cache.hits ()));
    ("pc.misses", i (Vm.Memory.Page_cache.misses ()));
    ("sup.retries", sup_retries);
    ("sup.failed", sup_failed);
    ( "gw.rejected",
      match r.env.Work.gateway with
      | Some g -> i (Serverless.Gateway.shed_count g + Serverless.Gateway.breaker_rejections g)
      | None -> 0.0 );
    ( "vtrace.fires",
      match r.env.Work.probes with Some e -> i (Vtrace.Engine.fires e) | None -> 0.0 );
    ("sched.busy", busy);
    ("sched.idle", idle);
    ("gc.minor_words", gc.Gc.minor_words);
    ("gc.promoted_words", gc.Gc.promoted_words);
    ("gc.major_collections", i gc.Gc.major_collections);
    ("gc.top_heap_words", i gc.Gc.top_heap_words);
  ]

let delta r name =
  match r.at_prefix with
  | None -> 0.0
  | Some c -> List.assoc name c -. List.assoc name r.at_start

let per_op r name = delta r name /. float_of_int r.prefix

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---------------------------------------------------------------- *)
(* Telemetry flush and the simulated phase split                     *)
(* ---------------------------------------------------------------- *)

(* Sum the hub's phase spans: the depth-1 children of each [invocation]
   span tile it exactly; [hypercall] spans nest inside [execute]. *)
let collect_phases r hub =
  let add name c =
    Hashtbl.replace r.phases name
      (Int64.to_float c +. Option.value ~default:0.0 (Hashtbl.find_opt r.phases name))
  in
  let inv_depth = ref (-1) in
  List.iter
    (fun (s : Telemetry.Span.span) ->
      if !inv_depth >= 0 && s.depth <= !inv_depth then inv_depth := -1;
      if s.name = "invocation" then begin
        inv_depth := s.depth;
        add "invocation" s.duration
      end
      else if !inv_depth >= 0 then begin
        if s.depth = !inv_depth + 1 then begin
          add s.name s.duration;
          add "tiled" s.duration
        end
        else if s.name = "hypercall" then add "hypercall" s.duration
      end)
    (Telemetry.Span.spans (Telemetry.Hub.spans hub))

(* Spans of the prefix: the deployed hub's count, and in a traced run
   the phase split. *)
let count_spans r hub =
  let sink = Telemetry.Hub.spans hub in
  if r.deployed then
    r.spans_seen <- r.spans_seen + Telemetry.Span.count sink + Telemetry.Span.dropped sink;
  if r.traced then begin
    if Telemetry.Span.dropped sink > 0 then r.wrong <- Some "hub span sink overflowed";
    collect_phases r hub
  end

(* A deployment exports its telemetry every [flush_every r] completions:
   the whole periods of the request mix nearest 1000. *)
let flush_every r = r.spec.Work.period * max 1 (1000 / r.spec.Work.period)

let flush r =
  match r.hub with
  | None -> ()
  | Some hub ->
      if r.deployed then
        Hspan.span "telemetry.export" (fun () ->
            let metrics = Telemetry.Hub.metrics hub in
            Option.iter (fun e -> Vtrace.Engine.export e metrics) r.env.Work.probes;
            ignore (Sys.opaque_identity (Telemetry.Chrome.to_json hub));
            ignore (Sys.opaque_identity (Telemetry.Prometheus.to_text metrics)));
      if r.measuring && r.at_prefix = None then count_spans r hub;
      Telemetry.Hub.clear_spans hub

(* ---------------------------------------------------------------- *)
(* Open-loop driver                                                  *)
(* ---------------------------------------------------------------- *)

let complete r ~id ~at ~start ~done_at ~host_ns outcome =
  r.completed <- r.completed + 1;
  r.last_id <- id;
  match outcome with
  | Error msg -> if r.wrong = None then r.wrong <- Some msg
  | Ok served ->
      if r.measuring then begin
        Samples.add r.host_us (float_of_int host_ns /. 1e3);
        Samples.add r.end_ns (float_of_int (now_ns () - r.t_start));
        (match served with Work.Failed _ -> r.failed <- r.failed + 1 | Work.Served _ -> ());
        if r.measured < r.prefix then begin
          let lat = Int64.sub done_at at in
          Samples.add r.sim_us (us_of_cycles r (Int64.to_float lat));
          Samples.add r.wait_us (us_of_cycles r (Int64.to_float (Int64.sub start at)));
          r.service_cycles <- r.service_cycles +. Int64.to_float (Int64.sub done_at start);
          let summary = match served with Work.Served s -> s | Work.Failed s -> "failed " ^ s in
          r.digest <- Digest.string (Printf.sprintf "%s%d %Ld %s\n" r.digest id lat summary)
        end;
        r.measured <- r.measured + 1
      end

let submit r =
  let id = Dessim.Cores.submitted r.sched in
  let at = Int64.of_float r.next_at in
  let serve = Hspan.span "bench.generate" r.env.Work.next in
  Dessim.Cores.submit r.sched ~at (fun ~core ->
      let clk = r.clocks.(core) in
      let start = Cycles.Clock.now clk in
      let t0 = now_ns () in
      let outcome =
        match serve () with
        | s -> Ok s
        | exception Work.Wrong msg -> Error msg
        | exception e -> Error ("exception: " ^ Printexc.to_string e)
      in
      let host_ns = now_ns () - t0 in
      complete r ~id ~at ~start ~done_at:(Cycles.Clock.now clk) ~host_ns outcome);
  (* exponential inter-arrival gap at the workload's virtual rate *)
  let u = Cycles.Rng.float r.arrivals in
  r.next_at <- r.next_at +. (-.log (1.0 -. u) /. r.spec.Work.rate *. r.cycles_per_s)

let step r =
  (* keep a window of future arrivals queued: the scheduler only ever
     sees released-or-pending work, exactly as if all were submitted *)
  while Dessim.Cores.pending r.sched < 64 * r.spec.Work.cores do
    submit r
  done;
  ignore (Dessim.Cores.step r.sched);
  if r.completed mod flush_every r = 0 then flush r

let create_run spec env ~seed ~prefix ~traced =
  let w = env.Work.w in
  let n = Wasp.Runtime.cores w in
  let clocks = Array.init n (Wasp.Runtime.core_clock w) in
  Wasp.Runtime.set_reclaim_policy w Wasp.Pool.Scheduled;
  (* idle windows retire deferred cleans, then pre-boot shells, as in
     Serverless.Loadgen.run_cores *)
  let idle ~core ~budget =
    Hspan.span "wasp.reclaim" (fun () ->
        let spent = Wasp.Runtime.drain_reclaim w ~core ~budget in
        let left = budget - spent in
        if left > 0 then spent + Wasp.Runtime.prewarm_step w ~core ~budget:left else spent)
  in
  let sched = Dessim.Cores.create ~switch:(Wasp.Runtime.on_core w) ~idle clocks in
  Dessim.Cores.set_probes sched (Wasp.Runtime.probes w);
  {
    spec;
    env;
    prefix;
    traced;
    sched;
    clocks;
    arrivals = Cycles.Rng.create ~seed:(seed + 5);
    cycles_per_s = Cycles.Clock.freq_ghz clocks.(0) *. 1e9;
    next_at = 0.0;
    completed = 0;
    measuring = false;
    measured = 0;
    t_start = 0;
    last_id = -1;
    host_us = Samples.create ();
    end_ns = Samples.create ();
    sim_us = Samples.create ();
    wait_us = Samples.create ();
    service_cycles = 0.0;
    digest = "";
    failed = 0;
    wrong = None;
    hub = env.Work.hub;
    deployed = env.Work.hub <> None;
    spans_seen = 0;
    phases = Hashtbl.create 16;
    at_start = [];
    at_prefix = None;
    probe_ns = Samples.create ();
    probe_v = Samples.create ();
  }

(* The speed probe: a fixed pure-OCaml loop (integer hashing over a
   32 KB table), ns per iteration. It touches nothing the benchmark
   measures, so it tracks the speed the machine gives this process. *)
let calib_table = Array.init 4096 (fun i -> i)

let calib_once iters =
  let a = calib_table in
  let t0 = now_ns () in
  let h = ref 0 in
  for i = 0 to iters - 1 do
    let j = (i * 2654435761) land 4095 in
    h := ((!h lxor a.(j)) * 31) + i;
    a.(j) <- !h land 0xFFFF
  done;
  ignore (Sys.opaque_identity !h);
  float_of_int (now_ns () - t0) /. float_of_int iters

let calibrate () = median (Array.init 5 (fun _ -> calib_once 2_000_000))

(* A short probe: median of three ~0.25 ms bursts. *)
let probe () = median (Array.init 3 (fun _ -> calib_once 100_000))

(* Host times are reported at a reference speed of [ref_ns] per probe
   iteration. Shared machines change speed by tens of percent for
   seconds to minutes at a time (clock and neighbour load), as much as
   the bounds this benchmark gates on. So the run probes its own speed
   every [probe_every_ns] and scales each host time by ref_ns / probe,
   with the probe taken as the median of those within [speed_window_ns]
   of it. Raw times are printed next to the scaled ones. *)
let ref_ns = 2.5
let probe_every_ns = 100_000_000
let speed_window_ns = 300e6

(* Set-up is timed as a whole: compile, runtime creation, registration,
   corpus, first invocations and the warm-up prefix of the stream. It
   runs [setups] times from scratch (the page cache emptied each time)
   and the last deployment is the one measured. Each set-up time is
   scaled by a probe taken just before it. *)
let set_up spec ~seed ~sinks ~prefix ~traced ~setups ~warmup =
  let rec go i acc =
    Vm.Memory.Page_cache.reset ();
    let speed = probe () in
    let t0 = now_ns () in
    let env = spec.Work.setup ~seed ~sinks in
    let r = create_run spec env ~seed ~prefix ~traced in
    while r.completed < warmup && r.wrong = None do
      step r
    done;
    let secs = float_of_int (now_ns () - t0) /. 1e9 in
    let acc = (secs *. ref_ns /. speed, secs) :: acc in
    if i < setups && r.wrong = None then go (i + 1) acc
    else (r, Array.of_list (List.map fst acc), Array.of_list (List.map snd acc))
  in
  go 1 []

(* GC time from the runtime's own event ring (traced runs only). *)
module Gc_time = struct
  let ns = ref 0
  let depth = ref 0
  let since = ref 0
  let lost = ref 0
  let cursor = ref None

  let counted = function
    | Runtime_events.EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE | EV_EXPLICIT_GC_MINOR
    | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        if counted phase then begin
          if !depth = 0 then since := ts t;
          incr depth
        end)
      ~runtime_end:(fun _ t phase ->
        if counted phase && !depth > 0 then begin
          decr depth;
          if !depth = 0 then ns := !ns + (ts t - !since)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let start () =
    Runtime_events.start ();
    let c = Runtime_events.create_cursor None in
    ignore (Runtime_events.read_poll c callbacks None);
    ns := 0;
    cursor := Some c

  let poll () =
    match !cursor with Some c -> ignore (Runtime_events.read_poll c callbacks None) | None -> ()
end

let measure r ~seconds =
  (match (r.traced, r.hub) with
  | true, None ->
      (* the simulated phase split comes from hub spans; sinks charge
         no simulated cycles, so the sequence is unchanged *)
      let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock r.env.Work.w) () in
      Wasp.Runtime.set_telemetry r.env.Work.w (Some hub);
      r.hub <- Some hub
  | _ -> ());
  Option.iter Telemetry.Hub.clear_spans r.hub;
  Hashtbl.reset Work.sim_cycles;
  Hspan.reset ();
  if r.traced then Gc_time.start ();
  r.measuring <- true;
  r.at_start <- counters r;
  r.t_start <- now_ns ();
  let until = r.t_start + int_of_float (seconds *. 1e9) in
  let next_probe = ref r.t_start in
  while r.wrong = None && (r.measured < r.prefix || now_ns () < until) do
    let t = now_ns () in
    if t >= !next_probe then begin
      Samples.add r.probe_v (probe ());
      Samples.add r.probe_ns (float_of_int (t - r.t_start));
      next_probe := t + probe_every_ns
    end;
    if r.traced then begin
      Hspan.enter "request";
      step r;
      Hspan.leave ~req:r.last_id ();
      Gc_time.poll ()
    end
    else step r;
    if r.at_prefix = None && r.measured >= r.prefix then begin
      (* counts stop at the prefix, so they are exact at a fixed seed *)
      Option.iter
        (fun hub ->
          count_spans r hub;
          Telemetry.Hub.clear_spans hub)
        r.hub;
      r.at_prefix <- Some (counters r)
    end
  done;
  float_of_int (now_ns () - r.t_start) /. 1e9

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)
(* ---------------------------------------------------------------- *)

(* The measured requests split into five equal consecutive segments of
   whole periods of the request mix (and, in a deployment, of whole
   export intervals), so each segment does the same work: (first
   request, last request) each. A run too short for that is one
   segment. *)
let segments r =
  let n = Samples.length r.end_ns in
  let period = if r.deployed then flush_every r else r.spec.Work.period in
  let seg = n / 5 / period * period in
  if seg = 0 then [| (0, n - 1) |] else Array.init 5 (fun k -> (k * seg, ((k + 1) * seg) - 1))

(* The speed around [t] (ns after the start): the median of the probes
   within [speed_window_ns] of it (probes come every [probe_every_ns], so
   there are always some), else of all probes. *)
let speed_at r t =
  let n = Samples.length r.probe_ns in
  if n = 0 then ref_ns
  else begin
    (* first probe at or after [t - window] *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Samples.get r.probe_ns mid < t -. speed_window_ns then lo := mid + 1 else hi := mid
    done;
    let near = ref [] and i = ref !lo in
    while !i < n && Samples.get r.probe_ns !i <= t +. speed_window_ns do
      near := Samples.get r.probe_v !i :: !near;
      incr i
    done;
    match !near with
    | _ :: _ -> median (Array.of_list !near)
    | [] -> median (Samples.to_array r.probe_v)
  end

(* Factor turning raw host time at [t] into time at the reference speed. *)
let to_ref r ~scaled t = if scaled then ref_ns /. speed_at r t else 1.0

(* Throughput as the median over the segments, so one noisy stretch
   moves one segment, not the result. A segment's elapsed time is the sum
   of the gaps between its completions, each at the speed around it.
   [~scaled:false] gives raw host time. *)
let ops_per_s ?(scaled = true) r =
  median
    (Array.map
       (fun (lo, hi) ->
         let elapsed = ref 0.0 in
         for i = lo to hi do
           let t = Samples.get r.end_ns i in
           let prev = if i = 0 then 0.0 else Samples.get r.end_ns (i - 1) in
           elapsed := !elapsed +. ((t -. prev) *. to_ref r ~scaled t)
         done;
         float_of_int (hi - lo + 1) /. (!elapsed /. 1e9))
       (segments r))

(* Per-request host times, each at the speed around the request. *)
let host_times ?(scaled = true) r =
  Array.init (Samples.length r.host_us) (fun i ->
      let us = Samples.get r.host_us i in
      us *. to_ref r ~scaled (Samples.get r.end_ns i -. (us *. 1e3 /. 2.0)))

let heap_peak_mb r =
  let words = match r.at_prefix with Some c -> List.assoc "gc.top_heap_words" c | None -> 0.0 in
  words *. float_of_int (Sys.word_size / 8) /. 1e6

(* The gated tail is p95: on a shared machine the top 1-2% of requests
   carry most of its noise (p99 spread 17-24% from run to run where p95
   spread 3%), so p99 is reported but not gated. *)
let e2e ?scaled r ~setup_times =
  let host = host_times ?scaled r in
  [
    ("host_ops_per_s", ops_per_s ?scaled r, "req/s");
    ("host_p50_us", percentile host 50.0, "us");
    ("host_p95_us", percentile host 95.0, "us");
    ("setup_s", median setup_times, "s");
    ("heap_peak_mb", heap_peak_mb r, "MB");
  ]

(* Simulated results over the prefix (deterministic at a fixed seed),
   GC counts over the prefix, and the ungated host p99. *)
let sim_info r =
  let sim = Samples.to_array r.sim_us in
  [
    ("host_p99_us", Printf.sprintf "%.3f" (percentile (host_times r) 99.0));
    ("sim_p50_us", Printf.sprintf "%.3f" (percentile sim 50.0));
    ("sim_p99_us", Printf.sprintf "%.3f" (percentile sim 99.0));
    ("error_rate", Printf.sprintf "%.6f" (ratio (float_of_int r.failed) (float_of_int r.measured)));
    ("sim_digest", Digest.to_hex r.digest);
    ("gc_minor_words_per_op", Printf.sprintf "%.1f" (per_op r "gc.minor_words"));
    ("gc_promoted_words_per_op", Printf.sprintf "%.1f" (per_op r "gc.promoted_words"));
    ("gc_major_per_kop", Printf.sprintf "%.3f" (1000.0 *. per_op r "gc.major_collections"));
  ]

let print_header spec ~seed ~seconds ~trace ~prefix =
  Printf.printf "perf: workload=%s seed=%d seconds=%g trace=%d cores=%d rate=%g/s prefix=%d\n"
    spec.Work.name seed seconds trace spec.Work.cores spec.Work.rate prefix

let print_e2e r ~elapsed ~setup_times ~raw_setup_times =
  Printf.printf "  %-16s %14s %14s  %-6s  %s\n" "metric" "value" "raw" "unit" "samples";
  List.iter2
    (fun (name, v, unit) (_, raw, _) ->
      let samples =
        match name with
        | "host_ops_per_s" ->
            Printf.sprintf "median of 5 segments; %d requests in %.2f s" r.measured elapsed
        | "host_p50_us" | "host_p95_us" -> Printf.sprintf "%d requests" r.measured
        | "setup_s" -> Printf.sprintf "median of %d set-ups" (Array.length setup_times)
        | _ -> Printf.sprintf "after the first %d requests" r.prefix
      in
      Printf.printf "  %-16s %14.3f %14.3f  %-6s  %s\n" name v raw unit samples)
    (e2e r ~setup_times) (e2e ~scaled:false r ~setup_times:raw_setup_times);
  Printf.printf "  %-16s %14.3f %14.3f  %-6s  %d requests (not gated)\n" "host_p99_us"
    (percentile (host_times r) 99.0)
    (percentile (host_times ~scaled:false r) 99.0)
    "us" r.measured;
  Printf.printf "  host times scaled to %.2f ns per probe iteration; %d probes, median %.4f\n"
    ref_ns (Samples.length r.probe_v)
    (median (Samples.to_array r.probe_v));
  Printf.printf "  simulated, over the first %d measured requests (sim_us at %.2f GHz):\n" r.prefix
    (r.cycles_per_s /. 1e9)

(* ---------------------------------------------------------------- *)
(* Child runs (traced mode)                                          *)
(* ---------------------------------------------------------------- *)

let run_child args =
  let status, text = run_process Sys.executable_name args in
  match (status, parse_output text) with
  | Unix.WEXITED 0, Ok res when res.correct -> res
  | _, Error e -> failwith ("child run: " ^ e)
  | _, Ok _ -> failwith ("child run failed: " ^ String.concat " " args)

let info res key =
  match List.assoc_opt key res.info with
  | Some v -> v
  | None -> failwith ("child run printed no " ^ key)

let metric res key =
  match List.assoc_opt key res.metrics with
  | Some (v, _) -> v
  | None -> failwith ("child run printed no " ^ key)

(* ---------------------------------------------------------------- *)
(* Traced report                                                     *)
(* ---------------------------------------------------------------- *)

let print_self_table r =
  let root = float_of_int (Hspan.total_ns "request") in
  Printf.printf "  host self time by layer (traced pass, %d requests, %.3f s of request time):\n"
    r.measured (root /. 1e9);
  Printf.printf "    %-30s %9s %12s %8s\n" "span" "calls" "self_ms" "share";
  let sum = ref 0.0 in
  List.iter
    (fun (name, calls, self_ns) ->
      let share = 100.0 *. float_of_int self_ns /. root in
      sum := !sum +. share;
      let label = if name = "request" then "request (driver self)" else name in
      Printf.printf "    %-30s %9d %12.3f %7.2f%%\n" label calls
        (float_of_int self_ns /. 1e6)
        share)
    (Hspan.self_table ());
  Printf.printf "    %-30s %9s %12s %7.2f%%\n" "total" "" "" !sum

let phase_names =
  [ "provision"; "image_load"; "boot"; "snapshot_restore"; "marshal"; "execute"; "clean" ]

let phase r name = Option.value ~default:0.0 (Hashtbl.find_opt r.phases name)

let print_sim_split r =
  let ops = float_of_int r.prefix in
  let sim = Samples.to_array r.sim_us and wait = Samples.to_array r.wait_us in
  let mean a = if Array.length a = 0 then 0.0 else Stats.Descriptive.mean a in
  let lat = mean sim and wait_us = mean wait in
  let outside = (r.service_cycles -. phase r "invocation") /. ops in
  Printf.printf "  simulated latency split (mean over the prefix, sim_us):\n";
  Printf.printf "    %-30s %12.3f\n" "queue wait" wait_us;
  Printf.printf "    %-30s %12.3f\n" "outside invocations" (us_of_cycles r outside);
  List.iter
    (fun p -> Printf.printf "    %-30s %12.3f\n" p (us_of_cycles r (phase r p /. ops)))
    phase_names;
  Printf.printf "    %-30s %12.3f\n" "total" lat;
  let tiled = phase r "tiled" and whole = phase r "invocation" in
  Printf.printf "  phase spans tile the invocations: %s (%.0f of %.0f cycles)\n"
    (if tiled = whole then "exact" else "NOT EXACT") tiled whole

let per_layer r ~calib ~untraced ~detached ~compile_ms =
  let ops = float_of_int r.prefix in
  let cyc name = phase r name /. ops in
  let traced_ops = ops_per_s r in
  let untraced_ops = metric untraced "host_ops_per_s" in
  let sink_us =
    match detached with
    | Some d -> (1e6 /. untraced_ops) -. (1e6 /. metric d "host_ops_per_s")
    | None -> 0.0
  in
  let ns_per_cycle span key =
    ratio (float_of_int (Hspan.total_ns span))
      (Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt Work.sim_cycles key)))
  in
  let f key = float_of_string (info untraced key) in
  let measured = float_of_int r.measured in
  let sim = Samples.to_array r.sim_us and wait = Samples.to_array r.wait_us in
  [
    ("bench.calib_ns", calib, "ns");
    ("bench.driver_self_us", Hspan.self_us "request" /. measured, "us");
    ("bench.error_rate", ratio (float_of_int r.failed) measured, "ratio");
    ("trace.overhead_pct", 100.0 *. (1.0 -. (traced_ops /. untraced_ops)), "%");
    ("vcc.compile_ms", compile_ms, "ms");
    ("vcc.invoke_native_us", Hspan.mean_us "vcc.invoke_native", "us");
    ("vm.native_ns_per_sim_cycle", ns_per_cycle "vcc.invoke_native" "native", "ns/cycle");
    ("wasp.run_us", Hspan.mean_us "wasp.run", "us");
    ("vm.virtine_ns_per_sim_cycle", ns_per_cycle "wasp.run" "virtine", "ns/cycle");
    ("wasp.boot_path_us", Hspan.mean_us "wasp.boot_path", "us");
    ("wasp.handlers_us", float_of_int (Hspan.total_ns "wasp.handlers") /. 1e3 /. measured, "us");
    ("wasp.clean_us", Hspan.mean_us "wasp.clean", "us");
    ("wasp.supervisor_run_us", Hspan.mean_us "wasp.supervisor_run", "us");
    ("serverless.gateway_handle_us", Hspan.mean_us "serverless.gateway_handle", "us");
    ("telemetry.export_ms", Hspan.mean_us "telemetry.export" /. 1e3, "ms");
    ("telemetry.sink_us_per_op", sink_us, "us");
    ("host.p99_us", f "host_p99_us", "us");
    ("gc.minor_words_per_op", f "gc_minor_words_per_op", "words");
    ("gc.promoted_words_per_op", f "gc_promoted_words_per_op", "words");
    ("gc.major_per_kop", f "gc_major_per_kop", "count");
    ( "gc.time_share",
      100.0 *. float_of_int !Gc_time.ns /. float_of_int (Hspan.total_ns "request"),
      "%" );
    ("sim.p50_us", percentile sim 50.0, "sim_us");
    ("sim.p99_us", percentile sim 99.0, "sim_us");
    ("sim.provision_cycles", cyc "provision", "cycles");
    ("sim.boot_cycles", cyc "image_load" +. cyc "boot", "cycles");
    ("sim.snapshot_restore_cycles", cyc "snapshot_restore", "cycles");
    ("sim.marshal_cycles", cyc "marshal", "cycles");
    ("sim.execute_cycles", cyc "execute", "cycles");
    ("sim.hypercall_cycles", cyc "hypercall", "cycles");
    ("sim.clean_cycles", cyc "clean", "cycles");
    ("sim.untiled_cycles", phase r "invocation" -. phase r "tiled", "cycles");
    ("kvm.exits_per_op", per_op r "kvm.runs", "count");
    ("wasp.hypercalls_per_op", per_op r "wasp.hypercalls", "count");
    ("kvm.ept_violations_per_op", per_op r "kvm.ept", "count");
    ("kvm.vm_creations", delta r "kvm.vm_creations", "count");
    ( "pool.hit_ratio",
      ratio (delta r "pool.reused") (delta r "pool.reused" +. delta r "pool.created"),
      "ratio" );
    ("pool.stall_cycles_per_op", per_op r "pool.stall_cycles", "cycles");
    ("snapshot.hit_ratio", ratio (delta r "wasp.restores") (delta r "wasp.invocations"), "ratio");
    ("snapshot.evictions", delta r "snapshot.evictions", "count");
    ( "vm.page_cache_hit_ratio",
      ratio (delta r "pc.hits") (delta r "pc.hits" +. delta r "pc.misses"),
      "ratio" );
    ("supervisor.retries_per_op", per_op r "sup.retries", "count");
    ("supervisor.failed", delta r "sup.failed", "count");
    ("kvm.injected_faults", delta r "kvm.injected", "count");
    ("gateway.rejected", delta r "gw.rejected", "count");
    ( "dessim.utilization",
      ratio (delta r "sched.busy") (delta r "sched.busy" +. delta r "sched.idle"),
      "ratio" );
    ("dessim.queue_wait_p99_us", percentile wait 99.0, "sim_us");
    ("vtrace.fires_per_op", per_op r "vtrace.fires", "count");
    ("telemetry.spans_per_op", float_of_int r.spans_seen /. ops, "count");
  ]

(* ---------------------------------------------------------------- *)
(* Main                                                              *)
(* ---------------------------------------------------------------- *)

let usage () =
  Printf.eprintf
    "usage: perf.exe --workload {%s} --seed N --seconds S --trace 0|1\n\
    \       [--requests N] [--warmup N] [--setups N] [--detached] [--chrome FILE]\n"
    (String.concat "|" (List.map (fun w -> w.Work.name) Work.all));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let requests = ref 0 and warmup = ref (-1) and setups = ref 3 in
  let detached = ref false and chrome = ref "" in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the request sequence is made from");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure after set-up");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--requests", Arg.Set_int requests, "N measured requests behind the simulated metrics");
      ("--warmup", Arg.Set_int warmup, "N requests run as part of set-up (default per workload)");
      ("--setups", Arg.Set_int setups, "N times set-up runs; the last is measured (default 3)");
      ("--detached", Arg.Set detached, " run with the deployed observability detached");
      ("--chrome", Arg.Set_string chrome, "FILE host-time Chrome trace of a traced run");
    ]
  in
  (try Arg.parse_argv Sys.argv args (fun _ -> raise (Arg.Bad "no positional arguments")) ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let spec =
    match List.find_opt (fun w -> w.Work.name = !workload) Work.all with
    | Some s -> s
    | None -> usage ()
  in
  if (!trace <> 0 && !trace <> 1) || !setups < 1 then usage ();
  let warmup = if !warmup >= 0 then !warmup else spec.Work.warmup in
  let traced = !trace = 1 in
  let prefix = if !requests > 0 then !requests else spec.Work.prefix in
  let sinks = spec.Work.sinks && not !detached in
  print_header spec ~seed:!seed ~seconds:!seconds ~trace:!trace ~prefix;
  let calib = calibrate () in
  if traced then Hspan.enable ();
  let r, setup_times, raw_setup_times =
    set_up spec ~seed:!seed ~sinks ~prefix ~traced ~setups:!setups ~warmup
  in
  let compile_ms = float_of_int (Hspan.total_ns "vcc.compile") /. 1e6 /. float_of_int !setups in
  (* a traced run splits its time: half traced, the rest for the
     untraced and detached re-runs it is compared with *)
  let share = if traced then 0.5 else 1.0 in
  let elapsed = if r.wrong = None then measure r ~seconds:(!seconds *. share) else 0.0 in
  let correct = r.wrong = None in
  Option.iter (fun m -> Printf.printf "WRONG OUTPUT: %s\n" m) r.wrong;
  let finish ?(correct = correct) metrics =
    print_string
      (result_line ~correct ~attempted:(max 1 r.measured) ~failed:r.failed metrics ^ "\n");
    exit (if correct then 0 else 1)
  in
  let wrong msg =
    Printf.printf "WRONG OUTPUT: %s\n" msg;
    finish ~correct:false []
  in
  if not traced then begin
    print_e2e r ~elapsed ~setup_times ~raw_setup_times;
    List.iter (fun (k, v) -> Printf.printf "# %s %s\n" k v)
      (("calib_ns", Printf.sprintf "%.4f" calib) :: sim_info r);
    finish (e2e r ~setup_times)
  end
  else begin
    let child extra =
      let sub = Printf.sprintf "%g" (!seconds /. 4.0) in
      run_child
        ([ "--workload"; spec.Work.name; "--seed"; string_of_int !seed; "--seconds"; sub;
           "--trace"; "0"; "--requests"; string_of_int prefix; "--warmup"; string_of_int warmup;
           "--setups"; string_of_int !setups ]
        @ extra)
    in
    if not correct then finish [];
    let untraced, detached =
      try (child [], if spec.Work.sinks then Some (child [ "--detached" ]) else None)
      with Failure msg -> wrong msg
    in
    let digest = Digest.to_hex r.digest in
    let same res = info res "sim_digest" = digest in
    print_self_table r;
    print_sim_split r;
    Printf.printf "# sim_digest %s\n# untraced_sim_digest %s\n" digest (info untraced "sim_digest");
    Option.iter
      (fun d -> Printf.printf "# detached_sim_digest %s\n" (info d "sim_digest"))
      detached;
    if not (same untraced && Option.fold ~none:true ~some:same detached) then
      wrong "simulated results differ between the traced, untraced and detached runs";
    if !Gc_time.lost > 0 then
      Printf.printf "  runtime_events lost %d events: gc.time_share is a lower bound\n"
        !Gc_time.lost;
    let path =
      if !chrome <> "" then !chrome
      else begin
        if not (Sys.file_exists "_perf") then Sys.mkdir "_perf" 0o755;
        Filename.concat "_perf" (spec.Work.name ^ ".trace.json")
      end
    in
    Hspan.write_chrome path;
    Printf.printf "  host-time Chrome trace: %s (%d spans%s)\n" path !Hspan.nrec
      (if !Hspan.dropped > 0 then Printf.sprintf ", %d not retained" !Hspan.dropped else "");
    let metrics = per_layer r ~calib ~untraced ~detached ~compile_ms in
    List.iter (fun (n, v, u) -> Printf.printf "  %-30s %16.4f %s\n" n v u) metrics;
    finish metrics
  end
