(* Shared helpers for the experiment harness. *)

let freq_ghz = Cycles.Clock.default_freq_ghz

let us_of_cycles c = Int64.to_float c /. freq_ghz /. 1e3
let ms_of_cycles c = us_of_cycles c /. 1e3

let trials n f = Array.init n (fun _ -> Int64.to_float (f ()))

let summarize ?(tukey = true) xs = Stats.Descriptive.summarize ~tukey xs

let fmt_cycles c = Printf.sprintf "%.0f" c
let fmt_us_of_c c = Printf.sprintf "%.2f" (c /. freq_ghz /. 1e3)

let print_blank () = print_newline ()

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let header name paper_ref =
  print_string (Stats.Report.section name);
  Printf.printf "(reproduces %s)\n\n%!" paper_ref

(* Machine-readable results: `--json-out DIR` mirrors every table an
   experiment prints into DIR/BENCH_<fig>.json, one file per figure
   (the format is Bench_json's). *)

let json_out : string option ref = ref None

(* (fig, table), in print order *)
let json_tables : (string * Bench_json.table) list ref = ref []

let table ~fig ?title ~header rows =
  print_string (Stats.Report.table ?title ~header rows);
  if !json_out <> None then
    json_tables := (fig, { Bench_json.title; header; rows }) :: !json_tables

let dump_json () =
  match !json_out with
  | None -> ()
  | Some dir ->
      let tables = List.rev !json_tables in
      List.iter
        (fun fig ->
          let mine =
            List.filter_map (fun (f, t) -> if f = fig then Some t else None) tables
          in
          Printf.printf "wrote %s\n%!" (Bench_json.write ~dir ~fig mine))
        (List.sort_uniq compare (List.map fst tables))

(* Telemetry: opt-in with `bench/main.exe -- --telemetry ...`. Spans are
   capacity-bounded, so attaching a hub to a many-thousand-trial
   experiment still yields a usable aggregate summary (dropped spans are
   reported; the metrics registry never drops). *)

let telemetry_enabled = ref false

(* Multi-core axis: `--cores N` enables the core-scaling sections of
   fig12/fig13 (sweeping 1..N simulated cores). *)
let cores = ref 1

(* `--trace-json FILE` dumps the last attached hub's spans as a Chrome
   trace after the run (consumed by `wasprun --check-trace` in CI). *)
let trace_json : string option ref = ref None

let last_hub : Telemetry.Hub.t option ref = ref None

let attach_telemetry w =
  if not !telemetry_enabled then None
  else begin
    let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
    Wasp.Runtime.set_telemetry w (Some hub);
    last_hub := Some hub;
    Some hub
  end

let dump_trace () =
  match !trace_json with
  | None -> ()
  | Some path -> (
      match !last_hub with
      | None ->
          Printf.eprintf "--trace-json: no telemetry hub was attached (pass --telemetry)\n"
      | Some hub ->
          let oc = open_out_bin path in
          output_string oc (Telemetry.Chrome.to_json hub);
          close_out oc;
          Printf.printf "wrote Chrome trace to %s\n%!" path)

let report_telemetry ?(label = "telemetry") hub =
  match hub with
  | None -> ()
  | Some h ->
      print_newline ();
      print_string (Telemetry.Summary.render ~title:(label ^ ": where did the cycles go") h);
      print_newline ();
      print_string (Telemetry.Prometheus.to_text (Telemetry.Hub.metrics h));
      print_newline ()
