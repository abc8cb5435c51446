type phase = { duration_s : float; clients : int }

let bursty_profile =
  [
    { duration_s = 5.0; clients = 2 };   (* ramp-up *)
    { duration_s = 10.0; clients = 16 }; (* burst 1 *)
    { duration_s = 5.0; clients = 4 };   (* dip *)
    { duration_s = 10.0; clients = 20 }; (* burst 2 *)
    { duration_s = 5.0; clients = 1 };   (* ramp-down *)
  ]

type bucket = {
  t_s : float;
  completed : int;
  rps : float;
  mean_ms : float option;
  p99_ms : float option;
}

type sample = { at : int64; latency : int64 }

(* Shared bucketing: fold completion samples into one-second buckets.
   Seconds with no completions report [None] latencies instead of a
   bogus 0.0 that would plot as "zero latency". *)
let bucketize ~cps ~total_end samples =
  let seconds = int_of_float (Float.ceil (Int64.to_float total_end /. cps)) in
  let buckets = Array.make (max 1 seconds) [] in
  List.iter
    (fun s ->
      let idx = min (Array.length buckets - 1) (int_of_float (Int64.to_float s.at /. cps)) in
      buckets.(idx) <- s :: buckets.(idx))
    samples;
  Array.to_list
    (Array.mapi
       (fun i bucket ->
         let completed = List.length bucket in
         if completed = 0 then
           { t_s = float_of_int (i + 1); completed = 0; rps = 0.0; mean_ms = None; p99_ms = None }
         else begin
           let lat_ms =
             Array.of_list
               (List.map (fun s -> Int64.to_float s.latency /. cps *. 1000.0) bucket)
           in
           {
             t_s = float_of_int (i + 1);
             completed;
             rps = float_of_int completed;
             mean_ms = Some (Stats.Descriptive.mean lat_ms);
             p99_ms = Some (Stats.Descriptive.percentile lat_ms 99.0);
           }
         end)
       buckets)

let cycles_of_s ~cps s = Int64.of_float (s *. cps)

(* The profile's phases as (start, end, clients) cycle windows, and the
   end of the last one. *)
let phase_windows ~cps profile =
  let t = ref 0.0 in
  let windows =
    List.map
      (fun p ->
        let start = !t in
        t := !t +. p.duration_s;
        (cycles_of_s ~cps start, cycles_of_s ~cps !t, p.clients))
      profile
  in
  (windows, List.fold_left (fun acc (_, e, _) -> max acc e) 0L windows)

let run ?(workers = 8) ?(think_time_s = 0.05) ~service ~profile () =
  let cps = Cycles.Clock.default_freq_ghz *. 1e9 in
  let sim = Dessim.Sim.create () in
  let server = Dessim.Sim.Server.create ~workers sim ~service in
  let samples = ref [] in
  let think = cycles_of_s ~cps think_time_s in
  let phase_windows, total_end = phase_windows ~cps profile in
  List.iter
    (fun (start, phase_end, clients) ->
      for _ = 1 to clients do
        let rec client_loop () =
          if Int64.compare (Dessim.Sim.now sim) phase_end < 0 then
            Dessim.Sim.Server.submit server ~on_done:(fun ~wait ~service ->
                samples :=
                  { at = Dessim.Sim.now sim; latency = Int64.add wait service } :: !samples;
                Dessim.Sim.schedule sim ~delay:think client_loop)
        in
        Dessim.Sim.at sim ~time:start client_loop
      done)
    phase_windows;
  Dessim.Sim.run sim;
  bucketize ~cps ~total_end !samples

let export_core_stats runtime sched =
  let sys = Wasp.Runtime.kvm runtime in
  Array.iteri
    (fun i (s : Dessim.Cores.core_stats) ->
      Kvmsim.Kvm.gauge sys
        (Printf.sprintf "sched_core%d_utilization" i)
        (Dessim.Cores.utilization sched ~core:i);
      Kvmsim.Kvm.gauge sys
        (Printf.sprintf "sched_core%d_busy_cycles" i)
        (Int64.to_float s.Dessim.Cores.busy_cycles);
      Kvmsim.Kvm.gauge sys
        (Printf.sprintf "sched_core%d_reclaim_cycles" i)
        (Int64.to_float s.Dessim.Cores.reclaim_cycles))
    (Dessim.Cores.core_stats sched);
  Kvmsim.Kvm.count sys ~by:(Dessim.Cores.steals sched) "sched_steals_total";
  Kvmsim.Kvm.count sys ~by:(Dessim.Cores.executed sched) "sched_tasks_total"

(* Multi-core closed loop: clients fire against the scheduler instead of
   a FIFO server, so requests run as real work on per-core clocks (with
   work stealing, and idle cycles feeding the pool's reclaim drain). *)
let run_cores ?(think_time_s = 0.05) ~runtime ~request ~profile () =
  let cps = Cycles.Clock.freq_ghz (Wasp.Runtime.clock runtime) *. 1e9 in
  let n = Wasp.Runtime.cores runtime in
  let clocks = Array.init n (Wasp.Runtime.core_clock runtime) in
  let sys = Wasp.Runtime.kvm runtime in
  (* deferred cleaning becomes real under the scheduler: released shells
     queue per core and are cleaned during idle windows below *)
  Wasp.Runtime.set_reclaim_policy runtime Wasp.Pool.Scheduled;
  let sched =
    Dessim.Cores.create
      ~switch:(Wasp.Runtime.on_core runtime)
      ~idle:(fun ~core ~budget ->
        (* idle windows first retire deferred cleans, then pre-boot
           replacement shells with whatever budget is left (the
           pipelined refill behind the hypercall ring's fast path) *)
        let spent = Wasp.Runtime.drain_reclaim runtime ~core ~budget in
        let left = budget - spent in
        if left > 0 then spent + Wasp.Runtime.prewarm_step runtime ~core ~budget:left
        else spent)
      ~probe:(fun ~core ~reason ~cycles ~nr site ->
        if Kvmsim.Kvm.probing sys site then Kvmsim.Kvm.fire sys ~core ~reason ~cycles ~nr site)
      clocks
  in
  let samples = ref [] in
  let think = cycles_of_s ~cps think_time_s in
  let phase_windows, total_end = phase_windows ~cps profile in
  List.iter
    (fun (start, phase_end, clients) ->
      for _ = 1 to clients do
        let rec fire at =
          Dessim.Cores.submit sched ~at (fun ~core ->
              request ();
              let done_at = Cycles.Clock.now clocks.(core) in
              let latency = Int64.sub done_at at in
              samples := { at = done_at; latency } :: !samples;
              let next = Int64.add done_at think in
              if Int64.compare next phase_end < 0 then fire next)
        in
        fire start
      done)
    phase_windows;
  Dessim.Cores.run sched;
  export_core_stats runtime sched;
  let actual_end =
    List.fold_left (fun acc s -> max acc s.at) total_end !samples
  in
  (bucketize ~cps ~total_end:actual_end !samples, sched)
