(* Correctness and determinism smoke for the benchmark, run by
   [dune test]:

     smoke.exe PERF_EXE BENCHMARK.json

   Every workload runs a short sequence in separate processes: once
   untraced, and once traced (which itself re-runs the sequence untraced
   and, where the workload deploys observability, detached). It checks
   that no output is wrong, that every metric BENCHMARK.json declares is
   printed with its unit, that two untraced processes produce the same
   simulated digest, and that tracing and detaching the sinks do not
   change it (sinks charge no simulated cycles). *)

let requests = "30"
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n%!" s)
    fmt

let run perf args =
  let status, text = Util.run_process perf args in
  match (status, Util.parse_output text) with
  | Unix.WEXITED 0, Ok r -> Some r
  | _, Ok _ | _, Error _ ->
      fail "%s exited badly:\n%s" (String.concat " " args) text;
      None

let check_metrics ~workload ~what (r : Util.result) decls =
  List.iter
    (fun (d : Util.decl) ->
      match List.assoc_opt d.Util.d_name r.Util.metrics with
      | Some (_, unit) when unit = d.Util.d_unit -> ()
      | Some (_, unit) ->
          fail "%s %s: %s has unit %s, declared %s" workload what d.d_name unit d.d_unit
      | None -> fail "%s %s: %s not printed" workload what d.d_name)
    decls;
  if List.length r.Util.metrics <> List.length decls then
    fail "%s %s: prints %d metrics, BENCHMARK.json declares %d" workload what
      (List.length r.metrics) (List.length decls)

let info (r : Util.result) key = List.assoc_opt key r.Util.info

let () =
  let perf = Sys.argv.(1) and bench = Sys.argv.(2) in
  let perf = if Filename.is_implicit perf then Filename.concat "." perf else perf in
  let workloads, e2e, per_layer = Util.benchmark_decls bench in
  let chrome = Filename.temp_file "perf-smoke" ".json" in
  List.iter
    (fun workload ->
      let common =
        [ "--workload"; workload; "--seed"; "7"; "--seconds"; "0"; "--requests"; requests;
          "--warmup"; requests; "--setups"; "1" ]
      in
      let plain = run perf (common @ [ "--trace"; "0" ]) in
      let traced = run perf (common @ [ "--trace"; "1"; "--chrome"; chrome ]) in
      match (plain, traced) with
      | Some p, Some t ->
          if not (p.correct && t.correct) then fail "%s: wrong output" workload;
          check_metrics ~workload ~what:"untraced" p e2e;
          check_metrics ~workload ~what:"traced" t per_layer;
          let digest = info p "sim_digest" in
          if digest = None then fail "%s: no sim_digest" workload;
          if info t "untraced_sim_digest" <> digest then
            fail "%s: two untraced processes disagree on sim_digest" workload;
          if info t "sim_digest" <> digest then fail "%s: tracing changed sim_digest" workload;
          (match info t "detached_sim_digest" with
          | Some d when Some d <> digest ->
              fail "%s: detaching the sinks changed sim_digest" workload
          | Some _ | None -> ());
          Printf.printf "ok %s %s\n%!" workload (Option.value ~default:"" digest)
      | _ -> ())
    workloads;
  Sys.remove chrome;
  if !failures > 0 then exit 1
