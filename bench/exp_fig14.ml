(* Figure 14: slowdown of JavaScript virtines relative to native for the
   base64 UDF, across the four optimization arms: plain virtine,
   +snapshot, no-teardown (NT), and +snapshot+NT. *)

let input_bytes = 512

let run () =
  Bench_util.header "Figure 14: JavaScript virtine slowdowns" "Figure 14, Section 6.5 (E8/C8)";
  let input = Vjs.Workload.make_input ~size:input_bytes in
  let expected = Vjs.Workload.reference_encode input in
  let trials = 40 in
  let baseline_clock = Cycles.Clock.create () in
  let baseline =
    Stats.Descriptive.mean
      (Bench_util.trials trials (fun () ->
           let o = Vjs.Workload.run_baseline ~clock:baseline_clock ~input in
           assert (o.Vjs.Workload.output = expected);
           o.Vjs.Workload.latency_cycles))
  in
  (* NT ("no teardown") arms retain contexts across invocations, which at
     the VM level means shell reuse (the pool); the non-NT arms create and
     destroy the context each time, like the paper's unoptimized runs. *)
  let arm name ~snapshot ~teardown seed =
    let w = Wasp.Runtime.create ~seed ~pool:(not teardown) ~clean:`Async () in
    let iso =
      Vjs.Isolate.create ~snapshot ~teardown w ~key:("fig14:" ^ name)
        ~source:Vjs.Workload.base64_js_source ~entry:"encode"
    in
    (* include the first (boot + snapshot-taking) run in the distribution,
       as the paper does ("the bars include the overhead for taking the
       initial snapshot") *)
    let mean =
      Stats.Descriptive.mean
        (Bench_util.trials trials (fun () ->
             match Vjs.Workload.run_virtine iso ~input with
             | Ok output, cycles ->
                 assert (output = expected);
                 cycles
             | Error e, _ -> failwith ("fig14 " ^ name ^ ": " ^ e)))
    in
    (name, mean)
  in
  let arms =
    [
      arm "Virtine" ~snapshot:false ~teardown:true 0x141;
      arm "Virtine+Snapshot" ~snapshot:true ~teardown:true 0x142;
      arm "Virtine NT" ~snapshot:false ~teardown:false 0x143;
      arm "Virtine+Snapshot+NT" ~snapshot:true ~teardown:false 0x144;
    ]
  in
  let rows =
    ([ "native (Duktape baseline)"; Printf.sprintf "%.0f" (baseline /. Bench_util.freq_ghz /. 1e3); "1.00x" ])
    :: List.map
         (fun (name, mean) ->
           [
             name;
             Printf.sprintf "%.0f" (mean /. Bench_util.freq_ghz /. 1e3);
             Printf.sprintf "%.2fx" (mean /. baseline);
           ])
         arms
  in
  Bench_util.table ~fig:"fig14" ~header:[ "configuration"; "latency (us)"; "slowdown" ] rows;
  print_newline ();
  print_string
    (Stats.Report.bar_chart ~title:"slowdown vs native"
       (("native", 1.0)
       :: List.map (fun (name, mean) -> (name, mean /. baseline)) arms));
  Bench_util.note "paper: baseline 419 us; plain virtine ~1.3x (C8 allows 1.5-2x);";
  Bench_util.note
    "snapshot roughly halves the overhead; snapshot+NT approaches pure parse+exec (137 us)"
