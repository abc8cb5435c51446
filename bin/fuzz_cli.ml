(* fuzz — coverage-guided differential fuzzing of the simulated
   hypervisor on the replay substrate.

   Modes:
     fuzz --iters N --seed S            deterministic campaign (CI smoke)
     fuzz --time-budget SECS            time-boxed campaign (nightly lane)
     fuzz --check-fixtures DIR          replay committed reproducers and
                                        run their images through the
                                        engine arm, fail on divergence
     fuzz --emit-corpus-fixtures N ...  record canonical seed transcripts

   Exit codes: 0 = clean (or, under --expect-finding, the expected
   canary was found), 1 = findings (or expected finding missing),
   2 = usage/fixture errors. *)

open Cmdliner

let log verbose fmt =
  Printf.ksprintf (fun s -> if verbose then Printf.printf "fuzz: %s\n%!" s) fmt

let run_campaign iters time_budget seed corpus_dir fixtures_out canary_name
    max_findings expect_finding verbose =
  match
    match canary_name with
    | None -> Ok None
    | Some name -> (
        match Fuzz.Oracle.canary_of_string name with
        | Some c -> Ok (Some c)
        | None -> Error (Printf.sprintf "unknown canary %S (shift-mask | cycle-skew)" name))
  with
  | Error e ->
      Printf.eprintf "fuzz: %s\n" e;
      2
  | Ok canary ->
      let config =
        {
          Fuzz.Driver.default_config with
          seed;
          iters;
          time_budget;
          now = Sys.time;
          corpus_dir;
          fixtures_out;
          canary;
          max_findings;
          log = (fun s -> if verbose then Printf.printf "fuzz: %s\n%!" s);
        }
      in
      let s = Fuzz.Driver.run config in
      List.iter
        (fun (f : Fuzz.Driver.finding) ->
          Printf.printf "FINDING [%s] %s\n  case: %s (%d bytes)\n  shrunk: %s (%d bytes)%s\n"
            (Fuzz.Oracle.fclass_name f.Fuzz.Driver.f_class)
            f.Fuzz.Driver.f_detail
            (Fuzz.Corpus.name f.Fuzz.Driver.f_case)
            (Fuzz.Shrink.size f.Fuzz.Driver.f_case)
            (Fuzz.Corpus.name f.Fuzz.Driver.f_shrunk)
            (Fuzz.Shrink.size f.Fuzz.Driver.f_shrunk)
            (match f.Fuzz.Driver.f_fixture with
            | Some p -> "\n  reproducer: " ^ p
            | None -> ""))
        s.Fuzz.Driver.findings;
      Printf.printf "FUZZ: iters=%d corpus=%d coverage_bits=%d findings=%d\n"
        s.Fuzz.Driver.iterations s.Fuzz.Driver.corpus_size
        s.Fuzz.Driver.coverage_bits
        (List.length s.Fuzz.Driver.findings);
      (match expect_finding with
      | None -> if s.Fuzz.Driver.findings = [] then 0 else 1
      | Some cls_name ->
          let hit =
            List.exists
              (fun (f : Fuzz.Driver.finding) ->
                Fuzz.Oracle.fclass_name f.Fuzz.Driver.f_class = cls_name)
              s.Fuzz.Driver.findings
          in
          if hit then begin
            Printf.printf "FUZZ-SMOKE: canary=detected class=%s\n" cls_name;
            0
          end
          else begin
            Printf.printf "FUZZ-SMOKE: canary=MISSED class=%s\n" cls_name;
            1
          end)

let run iters time_budget seed corpus_dir fixtures_out canary max_findings
    expect_finding check_fixtures_dir emit_n emit_dir verbose =
  match (check_fixtures_dir, emit_n) with
  | Some dir, _ -> (
      match Fuzz.Driver.check_fixtures ~dir ~log:(fun s -> log verbose "%s" s) with
      | Ok n ->
          Printf.printf "FIXTURES: ok=%d dir=%s\n" n dir;
          if n = 0 then begin
            Printf.eprintf "fuzz: no .vxr fixtures under %s\n" dir;
            2
          end
          else 0
      | Error errs ->
          List.iter (fun e -> Printf.eprintf "FIXTURE-DIVERGENCE: %s\n" e) errs;
          2)
  | None, Some n ->
      let dir = Option.value emit_dir ~default:"test/fixtures" in
      let written = Fuzz.Driver.emit_corpus_fixtures ~dir ~n in
      List.iter (fun p -> Printf.printf "wrote %s\n" p) written;
      if written = [] then 2 else 0
  | None, None ->
      run_campaign iters time_budget seed corpus_dir fixtures_out canary
        max_findings expect_finding verbose

let () =
  let iters =
    Arg.(
      value
      & opt (some int) None
      & info [ "iters" ] ~docv:"N"
          ~doc:"Run exactly $(docv) mutation iterations (deterministic mode)")
  in
  let time_budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECS"
          ~doc:"Stop after $(docv) seconds of CPU time (nightly mode; iteration count is not deterministic)")
  in
  let seed =
    Arg.(
      value & opt int 0xF022
      & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign RNG seed; everything derives from it")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Load this corpus directory and persist coverage-novel cases back into it")
  in
  let fixtures_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "fixtures-out" ] ~docv:"DIR"
          ~doc:"Write shrunk reproducer .vxr files here")
  in
  let canary =
    Arg.(
      value
      & opt (some string) None
      & info [ "canary" ] ~docv:"NAME"
          ~doc:"Arm a planted harness bug (shift-mask | cycle-skew) the oracle must detect")
  in
  let max_findings =
    Arg.(
      value & opt int 8
      & info [ "max-findings" ] ~docv:"N" ~doc:"Stop after $(docv) distinct findings")
  in
  let expect_finding =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect-finding" ] ~docv:"CLASS"
          ~doc:
            "Invert the exit code: succeed only if a finding of $(docv) (e.g. \
             canary-divergence) was detected — the smoke-test mode")
  in
  let check_fixtures_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-fixtures" ] ~docv:"DIR"
          ~doc:
            "Replay every committed .vxr under $(docv) and diff, then run each image \
             through the CPU-level engine arm (translator vs reference stepper)")
  in
  let emit_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "emit-corpus-fixtures" ] ~docv:"N"
          ~doc:"Record canonical transcripts for $(docv) seed cases and exit")
  in
  let emit_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-dir" ] ~docv:"DIR" ~doc:"Target for --emit-corpus-fixtures (default test/fixtures)")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-iteration progress on stdout")
  in
  let cmd =
    Cmd.v
      (Cmd.info "fuzz_cli"
         ~doc:"coverage-guided differential fuzzing of the virtine hypervisor")
      Term.(
        const run $ iters $ time_budget $ seed $ corpus_dir $ fixtures_out
        $ canary $ max_findings $ expect_finding $ check_fixtures_dir $ emit_n
        $ emit_dir $ verbose)
  in
  exit (Cmd.eval' cmd)
