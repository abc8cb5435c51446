(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation, plus the §6.4 study and design ablations.

   Usage:
     dune exec bench/main.exe              # run everything
     dune exec bench/main.exe -- fig11 fig14   # run a subset
     dune exec bench/main.exe -- --list    # list experiment names *)

let experiments =
  [
    ("table1", "boot component breakdown (Table 1)", Exp_table1.run);
    ("fig2", "context-creation lower bounds (Figure 2)", Exp_fig2.run);
    ("fig3", "fib(20) per processor mode (Figure 3)", Exp_fig3.run);
    ("fig4", "echo server milestones (Figure 4)", Exp_fig4.run);
    ("fig8", "creation latencies incl. Wasp and SGX (Figure 8)", Exp_fig8.run);
    ("table2", "isolation boundary-crossing costs (Table 2)", Exp_table2.run);
    ("fig11", "virtine latency vs fib(n) (Figure 11)", Exp_fig11.run);
    ("fig12", "image size vs start-up latency (Figure 12)", Exp_fig12.run);
    ("fig13", "HTTP server latency/throughput (Figure 13)", Exp_fig13.run);
    ("fig14", "JavaScript virtine slowdowns (Figure 14)", Exp_fig14.run);
    ("fig15", "serverless Vespid vs OpenWhisk (Figure 15)", Exp_fig15.run);
    ("aes", "OpenSSL AES-128-CBC integration (Section 6.4)", Exp_aes.run);
    ("udf", "database UDF isolation cost (Section 7.1)", Exp_udf.run);
    ("ablations", "design-choice ablations (hypercalls, pool, marshalling)", Exp_ablations.run);
    ("memshare", "paged CoW snapshot restore scaling (memory refactor)", Exp_memshare.run);
    ("rings", "batched hypercall ring: exits/request and throughput", Exp_rings.run);
    ("chaos", "fault injection: supervised vs unsupervised availability", Exp_chaos.run);
    ("chaos_slo", "SLO burn-rate alerting through a fault storm", Exp_chaos.run_slo);
    ("translate", "reference stepper vs superblock translation cache", Exp_translate.run);
    ("bechamel", "wall-clock microbenchmarks of the simulator", Bechamel_suite.run);
  ]

let list_experiments () =
  print_endline "available experiments:";
  List.iter (fun (name, desc, _) -> Printf.printf "  %-10s %s\n" name desc) experiments

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--telemetry" :: rest ->
        Bench_util.telemetry_enabled := true;
        parse acc rest
    | "--cores" :: n :: rest when int_of_string_opt n <> None ->
        let n = Option.get (int_of_string_opt n) in
        if n < 1 then begin
          Printf.eprintf "--cores must be >= 1\n";
          exit 1
        end;
        Bench_util.cores := n;
        parse acc rest
    | [ "--cores" ] | "--cores" :: _ ->
        Printf.eprintf "--cores needs an integer argument\n";
        exit 1
    | "--trace-json" :: path :: rest ->
        Bench_util.trace_json := Some path;
        parse acc rest
    | [ "--trace-json" ] ->
        Printf.eprintf "--trace-json needs a file argument\n";
        exit 1
    | "--json-out" :: dir :: rest ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
        else if not (Sys.is_directory dir) then begin
          Printf.eprintf "--json-out: %s exists and is not a directory\n" dir;
          exit 1
        end;
        Bench_util.json_out := Some dir;
        parse acc rest
    | [ "--json-out" ] ->
        Printf.eprintf "--json-out needs a directory argument\n";
        exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  match parse [] args with
  | [ "--list" ] -> list_experiments ()
  | [] ->
      print_endline "Virtines reproduction: full evaluation";
      print_endline "(all cycle figures are simulated on the paper's tinker calibration,";
      print_endline " AMD EPYC 7281 @ 2.69 GHz; see DESIGN.md and EXPERIMENTS.md)";
      List.iter (fun (_, _, run) -> run ()) experiments;
      Bench_util.dump_trace ();
      Bench_util.dump_json ()
  | names ->
      List.iter
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some (_, _, run) -> run ()
          | None ->
              Printf.eprintf "unknown experiment %S\n" name;
              list_experiments ();
              exit 1)
        names;
      Bench_util.dump_trace ();
      Bench_util.dump_json ()
