(* The campaign driver: corpus scheduling, coverage accounting, finding
   dedup, shrinking, and fixture emission.

   Determinism: with [iters] set (and no time budget) the whole
   campaign is a pure function of [seed] — same seed, same corpus, same
   coverage bit count, same findings, in the same order. A [time_budget]
   bounds wall time instead and is documented as non-deterministic in
   iteration count (the per-iteration work is still seeded). *)

type config = {
  seed : int;
  iters : int option;  (* iteration count: the deterministic mode *)
  time_budget : float option;  (* seconds, measured with [now] *)
  now : unit -> float;
  corpus_dir : string option;  (* persisted coverage-novel cases *)
  fixtures_out : string option;  (* shrunk reproducer .vxr files *)
  canary : Oracle.canary option;
  max_findings : int;
  shrink_budget : int;
  log : string -> unit;
}

let default_config =
  {
    seed = 0xF022;
    iters = Some 200;
    time_budget = None;
    now = (fun () -> 0.);
    corpus_dir = None;
    fixtures_out = None;
    canary = None;
    max_findings = 8;
    shrink_budget = Shrink.check_calls_bound;
    log = ignore;
  }

type finding = {
  f_class : Oracle.fclass;
  f_detail : string;
  f_case : Corpus.case;  (* as found *)
  f_shrunk : Corpus.case;  (* after delta debugging *)
  f_fixture : string option;  (* written reproducer path *)
}

type summary = {
  iterations : int;
  corpus_size : int;
  coverage_bits : int;
  findings : finding list;
  skipped : (string * string) list;  (* unloadable corpus files *)
}

(* Findings are deduplicated by class plus the arm prefix of the detail
   (the text before the first ':'), so "cycles 812 vs 813" and "cycles
   99 vs 101" from the same arm collapse into one reproducer. *)
let finding_key cls detail =
  let prefix =
    match String.index_opt detail ':' with
    | Some i -> String.sub detail 0 i
    | None -> detail
  in
  Oracle.fclass_name cls ^ "|" ^ prefix

let mkdir_p dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Write [case]'s canonical recording to [dir]/<name>.vxr: a fixture
   carries the canonical transcript so CI can judge replays against it. *)
let write_recording ?canary ~cache ~dir case =
  mkdir_p dir;
  match (Oracle.classify ?canary ~cache case).Oracle.recording with
  | None -> None
  | Some rc ->
      let path = Filename.concat dir (Corpus.name case ^ ".vxr") in
      Profiler.Replay.to_file rc path;
      Some path

let run config : summary =
  let rng = Cycles.Rng.create ~seed:config.seed in
  (* one translation cache for every case the campaign runs *)
  let cache = Vm.Translate.create () in
  let cov = Coverage.create () in
  let corpus = ref [||] in
  let seen = Hashtbl.create 256 in
  let findings = ref [] in
  let finding_keys = Hashtbl.create 8 in
  let started = config.now () in
  let add_to_corpus c =
    corpus := Array.append !corpus [| c |];
    match config.corpus_dir with
    | Some dir ->
        mkdir_p dir;
        ignore (Corpus.save_case ~dir c)
    | None -> ()
  in
  let handle_finding case cls detail =
    let key = finding_key cls detail in
    if not (Hashtbl.mem finding_keys key) then begin
      Hashtbl.replace finding_keys key ();
      config.log
        (Printf.sprintf "finding [%s] %s (case %s, shrinking...)"
           (Oracle.fclass_name cls) detail (Corpus.name case));
      let check c =
        match (Oracle.classify ?canary:config.canary ~cache c).Oracle.finding with
        | Some (cls', _) -> cls' = cls
        | None -> false
      in
      let shrunk = Shrink.shrink ~check ~budget:config.shrink_budget case in
      let path =
        Option.bind config.fixtures_out (fun dir ->
            write_recording ?canary:config.canary ~cache ~dir shrunk)
      in
      config.log
        (Printf.sprintf "  shrunk %s: %d -> %d bytes%s" (Corpus.name shrunk)
           (Shrink.size case) (Shrink.size shrunk)
           (match path with Some p -> " -> " ^ p | None -> ""));
      findings :=
        { f_class = cls; f_detail = detail; f_case = case; f_shrunk = shrunk;
          f_fixture = path }
        :: !findings
    end
  in
  (* Absorb one case: classify, account coverage, keep if novel. *)
  let absorb ~always_keep case =
    match Hashtbl.mem seen (Corpus.digest case) with
    | true -> ()
    | false ->
        Hashtbl.replace seen (Corpus.digest case) ();
        let v = Oracle.classify ?canary:config.canary ~cache case in
        let fresh = Coverage.observe cov v.Oracle.features in
        if fresh > 0 || always_keep then add_to_corpus case;
        (match v.Oracle.finding with
        | Some (cls, detail) -> handle_finding case cls detail
        | None -> ())
  in
  (* seed corpus: built-ins plus whatever the corpus directory holds *)
  let loaded, skipped =
    match config.corpus_dir with
    | Some dir when Sys.file_exists dir -> Corpus.load_dir dir
    | _ -> ([], [])
  in
  List.iter (fun (path, reason) -> config.log (Printf.sprintf "skipping %s: %s" path reason)) skipped;
  List.iter (absorb ~always_keep:true) (Corpus.seeds ());
  List.iter (absorb ~always_keep:false) loaded;
  (* the mutation loop *)
  let iterations = ref 0 in
  let stop () =
    List.length !findings >= config.max_findings
    || (match config.iters with Some n -> !iterations >= n | None -> false)
    || (match config.time_budget with
       | Some s -> config.now () -. started >= s
       | None -> false)
    || (config.iters = None && config.time_budget = None && !iterations >= 200)
  in
  while not (stop ()) do
    incr iterations;
    let parent = !corpus.(Cycles.Rng.int rng (Array.length !corpus)) in
    let candidate = Mutate.rounds ~rng (1 + Cycles.Rng.int rng 4) parent in
    absorb ~always_keep:false candidate;
    if !iterations mod 50 = 0 then
      config.log
        (Printf.sprintf "iter %d: corpus=%d coverage_bits=%d findings=%d"
           !iterations (Array.length !corpus) (Coverage.bit_count cov)
           (List.length !findings))
  done;
  {
    iterations = !iterations;
    corpus_size = Array.length !corpus;
    coverage_bits = Coverage.bit_count cov;
    findings = List.rev !findings;
    skipped;
  }

(* ------------------------------------------------------------------ *)
(* Fixture replay (the CI `fixtures` step)                              *)
(* ------------------------------------------------------------------ *)

(* Replay a committed fixture through the one replay path (any
   divergence, or re-serialized text that is not byte-identical, fails
   it), then run its image through the engine arm. *)
let check_fixture ~cache path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Wasp.Runtime.replay text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok (_, (_ :: _ as verdict)) ->
          Error (Printf.sprintf "%s [replay]: %s" path (String.concat "; " verdict))
      | Ok (recording, []) -> (
          match Corpus.of_replay recording with
          | Error e -> Error (Printf.sprintf "%s: not a fuzz case: %s" path e)
          | Ok case -> (
              match Oracle.engine_arm ~cache case with
              | Some (_, e) -> Error (Printf.sprintf "%s [engine]: %s" path e)
              | None -> Ok path)))

(* Replay every committed .vxr and run its image through the engine
   arm; returns the number that passed or the list of divergences. *)
let check_fixtures ~dir ~log =
  match Sys.readdir dir with
  | exception Sys_error e -> Error [ dir ^ ": " ^ e ]
  | files ->
      Array.sort compare files;
      let cache = Vm.Translate.create () in
      let ok = ref 0 and errs = ref [] in
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".vxr" then
            match check_fixture ~cache (Filename.concat dir f) with
            | Ok path ->
                incr ok;
                log (Printf.sprintf "fixture ok: %s" path)
            | Error e -> errs := e :: !errs)
        files;
      if !errs = [] then Ok !ok else Error (List.rev !errs)

(* ------------------------------------------------------------------ *)
(* Corpus fixture emission                                              *)
(* ------------------------------------------------------------------ *)

(* Record canonical transcripts for up to [n] seed cases (one per plane
   first) into [dir] — the committed reproducer corpus is bootstrapped
   from these even when a campaign finds no real divergence. *)
let emit_corpus_fixtures ~dir ~n =
  let all = Corpus.seeds () in
  let by_plane =
    List.sort_uniq (fun a b -> compare a.Corpus.plane b.Corpus.plane) all
  in
  let rest = List.filter (fun c -> not (List.memq c by_plane)) all in
  let picks = List.filteri (fun i _ -> i < n) (by_plane @ rest) in
  let cache = Vm.Translate.create () in
  List.filter_map (fun case -> write_recording ~cache ~dir case) picks
