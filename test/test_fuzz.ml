(* Tests for the fuzzing substrate: fault-plan textual round-trips,
   corpus .vxr round-trips, .vxr parse robustness (typed errors, never
   exceptions), shrink contract properties (class preservation,
   monotone size, bounded oracle calls), coverage bitmap semantics, and
   end-to-end determinism of the oracle and a small campaign. *)

let fclass = Alcotest.testable (Fmt.of_to_string Fuzz.Oracle.fclass_name) ( = )

(* ------------------------------------------------------------------ *)
(* Fault-plan textual round trip                                        *)
(* ------------------------------------------------------------------ *)

let gen_trigger =
  QCheck.Gen.(
    let* p = int_range 1 99 in
    let* start = int_range 0 10 in
    let* interval = int_range 0 5 in
    oneofl
      [
        Cycles.Fault_plan.Prob (float_of_int p /. 100.);
        Cycles.Fault_plan.Every { start; interval };
      ])

let plan_sites =
  [ "spurious_exit"; "ept_storm"; "guest_hang"; "provision_fail"; "snapshot_corrupt"; "ring_corrupt" ]

let gen_plan =
  QCheck.Gen.(
    let* seed = int_range 0 0xFFFFF in
    (* of_string rejects site-less plans, so always name at least one *)
    let* n = int_range 1 (List.length plan_sites) in
    let sites = List.filteri (fun i _ -> i < n) plan_sites in
    let* triggers = flatten_l (List.map (fun _ -> gen_trigger) sites) in
    return (Cycles.Fault_plan.create ~seed (List.combine sites triggers)))

let prop_plan_roundtrip =
  QCheck.Test.make ~name:"fault-plan text round-trips" ~count:300
    (QCheck.make gen_plan ~print:Cycles.Fault_plan.to_string)
    (fun plan ->
      let text = Cycles.Fault_plan.to_string plan in
      match Cycles.Fault_plan.of_string text with
      | Error e -> QCheck.Test.fail_reportf "did not reparse: %s (%s)" text e
      | Ok plan' -> Cycles.Fault_plan.to_string plan' = text)

let prop_plan_replay_identical =
  QCheck.Test.make ~name:"reparsed plan fires identically" ~count:100
    (QCheck.make QCheck.Gen.(pair gen_plan (int_range 1 200)))
    (fun (plan, n) ->
      let text = Cycles.Fault_plan.to_string plan in
      match Cycles.Fault_plan.of_string text with
      | Error _ -> false
      | Ok plan' ->
          let fire p site = List.init n (fun _ -> Cycles.Fault_plan.fires p ~site) in
          List.for_all (fun site -> fire plan site = fire plan' site) plan_sites)

(* ------------------------------------------------------------------ *)
(* Corpus .vxr round trip                                               *)
(* ------------------------------------------------------------------ *)

let gen_policy =
  QCheck.Gen.oneofl
    [
      Wasp.Policy.deny_all;
      Wasp.Policy.allow_all;
      Wasp.Policy.Mask (Wasp.Policy.mask_of_list [ Wasp.Hc.write; Wasp.Hc.read ]);
      Wasp.Policy.Mask 0x1234L;
    ]

let gen_case =
  QCheck.Gen.(
    let* plane = oneofl [ Fuzz.Corpus.Image_bytes; Fuzz.Corpus.Plan ] in
    let* code = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 1 64) in
    let* seed = int_range 0 0xFFFF in
    let* policy = gen_policy in
    let* fuel = int_range 1 100_000 in
    let* plan =
      oneofl [ None; Some "seed=0x7;spurious_exit=@0+2"; Some "seed=0x9;ept_storm=p0.25" ]
    in
    return { Fuzz.Corpus.plane; mode = Vm.Modes.Long; code; seed; policy; fuel; plan })

let print_case c = Fuzz.Corpus.to_vxr_string c

let prop_case_roundtrip =
  QCheck.Test.make ~name:"case survives .vxr round trip" ~count:200
    (QCheck.make gen_case ~print:print_case)
    (fun c ->
      match Fuzz.Corpus.of_vxr_string (Fuzz.Corpus.to_vxr_string c) with
      | Error e -> QCheck.Test.fail_reportf "round trip failed: %s" e
      | Ok c' -> c' = c)

(* Truncating a valid recording anywhere must yield a typed error or a
   valid parse — never an exception (the corpus is full of killed
   writes). *)
let prop_truncation_never_raises =
  QCheck.Test.make ~name:".vxr truncation never raises" ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_case (int_range 0 1000))
       ~print:(fun (c, n) -> Printf.sprintf "cut=%d of %s" n (print_case c)))
    (fun (c, cut) ->
      let text = Fuzz.Corpus.to_vxr_string c in
      let cut = min cut (String.length text) in
      match Profiler.Replay.of_string (String.sub text 0 cut) with
      | Ok _ | Error _ -> true)

let garbage_rejected () =
  let cases =
    [
      "";
      "vxr1";
      "not a recording at all";
      "vxr1\nimage x\nmode long\nmem_size -5\n";
      "vxr1\nimage x\nmode long\norigin 32768\nentry 0\nmem_size 16\nseed 1\npolicy deny_all\nfuel 9\nmd5 0\ncode 00\n";
    ]
  in
  List.iter
    (fun s ->
      match Profiler.Replay.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "garbage accepted: %S" s)
    cases

let load_dir_tolerates_junk () =
  let dir = Filename.temp_file "fuzz_corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name contents =
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "good.vxr" (Fuzz.Corpus.to_vxr_string (List.hd (Fuzz.Corpus.seeds ())));
  write "junk.vxr" "vxr1\ntrailing garbage";
  write "empty.vxr" "";
  write "ignored.txt" "not a corpus file";
  let ok, bad = Fuzz.Corpus.load_dir dir in
  Alcotest.(check int) "one valid case" 1 (List.length ok);
  Alcotest.(check int) "two rejects" 2 (List.length bad)

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let corpus_entries_replay () =
  (* every entry a campaign persists is its case's canonical recording,
     so it replays with an empty verdict, as a fixture does *)
  let dir = fresh_dir "fuzz_corpus" in
  let s =
    Fuzz.Driver.run
      { Fuzz.Driver.default_config with seed = 7; iters = Some 3; corpus_dir = Some dir }
  in
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let path f = Filename.concat dir f in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (path f)) files;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check int) "one file per corpus case" s.Fuzz.Driver.corpus_size (List.length files);
      List.iter
        (fun f ->
          match Wasp.Runtime.replay (In_channel.with_open_bin (path f) In_channel.input_all) with
          | Error e -> Alcotest.failf "%s: %s" f e
          | Ok (_, []) -> ()
          | Ok (_, verdict) -> Alcotest.failf "%s diverged: %s" f (String.concat "; " verdict))
        files)

(* ------------------------------------------------------------------ *)
(* Shrink contract                                                      *)
(* ------------------------------------------------------------------ *)

(* Synthetic checks keep the property fast while exercising the real
   search: "reproduces" = code retains a marker byte / enough length /
   the plan names a site. *)
let gen_marker_input =
  QCheck.Gen.(
    let* c = gen_case in
    let* marker = map Char.chr (int_range 0 255) in
    let* at = int_range 0 (String.length c.Fuzz.Corpus.code - 1) in
    let b = Bytes.of_string c.Fuzz.Corpus.code in
    Bytes.set b at marker;
    return ({ c with Fuzz.Corpus.code = Bytes.to_string b }, marker))

let prop_shrink_preserves_check =
  QCheck.Test.make ~name:"shrink preserves the failure class" ~count:100
    (QCheck.make gen_marker_input ~print:(fun (c, m) ->
         Printf.sprintf "marker=%C %s" m (print_case c)))
    (fun (c, marker) ->
      let check c = String.contains c.Fuzz.Corpus.code marker in
      QCheck.assume (check c);
      check (Fuzz.Shrink.shrink ~check c))

let prop_shrink_monotone =
  QCheck.Test.make ~name:"shrink never grows the case" ~count:100
    (QCheck.make gen_marker_input ~print:(fun (c, m) ->
         Printf.sprintf "marker=%C %s" m (print_case c)))
    (fun (c, marker) ->
      let check c = String.contains c.Fuzz.Corpus.code marker in
      QCheck.assume (check c);
      Fuzz.Shrink.size (Fuzz.Shrink.shrink ~check c) <= Fuzz.Shrink.size c)

let prop_shrink_bounded_calls =
  QCheck.Test.make ~name:"shrink respects the call budget" ~count:50
    (QCheck.make gen_case ~print:print_case)
    (fun c ->
      let calls = ref 0 in
      let check c' =
        incr calls;
        String.length c'.Fuzz.Corpus.code >= 1
      in
      let budget = 40 in
      ignore (Fuzz.Shrink.shrink ~check ~budget c);
      !calls <= budget)

(* ------------------------------------------------------------------ *)
(* Coverage bitmap                                                      *)
(* ------------------------------------------------------------------ *)

let gen_features =
  QCheck.Gen.(list_size (int_range 0 40) (string_size ~gen:printable (int_range 1 20)))

let prop_coverage_idempotent =
  QCheck.Test.make ~name:"re-observing features yields nothing new" ~count:200
    (QCheck.make gen_features)
    (fun fs ->
      let t = Fuzz.Coverage.create () in
      let first = Fuzz.Coverage.observe t fs in
      let again = Fuzz.Coverage.observe t fs in
      first <= List.length fs && again = 0)

(* The log2 bucket a hypercall count lands in, read from the
   ["hc#bucket"] feature it yields *)
let hc_bucket n =
  let features = Fuzz.Coverage.outcome_features ~outcome:"x" ~ret:0L ~hypercalls:n ~denied:0 in
  let hc = List.find (fun f -> String.starts_with ~prefix:"hc#" f) features in
  int_of_string (String.sub hc 3 (String.length hc - 3))

let prop_coverage_buckets_monotone =
  QCheck.Test.make ~name:"log2 buckets are monotone" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000)))
    (fun (a, b) ->
      let low = min a b and high = max a b in
      hc_bucket low <= hc_bucket high)

(* ------------------------------------------------------------------ *)
(* Oracle and campaign determinism                                      *)
(* ------------------------------------------------------------------ *)

let oracle_deterministic () =
  let case = List.hd (Fuzz.Corpus.seeds ()) in
  let v1 = Fuzz.Oracle.classify case in
  let v2 = Fuzz.Oracle.classify case in
  Alcotest.(check (list string)) "features" v1.Fuzz.Oracle.features v2.Fuzz.Oracle.features;
  Alcotest.(check (option (pair fclass string)))
    "finding" v1.Fuzz.Oracle.finding v2.Fuzz.Oracle.finding

let seeds_are_clean () =
  List.iter
    (fun case ->
      match (Fuzz.Oracle.classify case).Fuzz.Oracle.finding with
      | None -> ()
      | Some (cls, detail) ->
          Alcotest.failf "seed %s: unexpected %s: %s" (Fuzz.Corpus.name case)
            (Fuzz.Oracle.fclass_name cls) detail)
    (Fuzz.Corpus.seeds ())

let campaign_deterministic () =
  let run () =
    let s =
      Fuzz.Driver.run { Fuzz.Driver.default_config with seed = 0xBEE; iters = Some 15 }
    in
    ( s.Fuzz.Driver.iterations,
      s.Fuzz.Driver.corpus_size,
      s.Fuzz.Driver.coverage_bits,
      List.map
        (fun f -> (f.Fuzz.Driver.f_class, Fuzz.Corpus.digest f.Fuzz.Driver.f_shrunk))
        s.Fuzz.Driver.findings )
  in
  let a = run () and b = run () in
  if a <> b then Alcotest.fail "same seed produced different campaigns"

let canaries_detected () =
  (* the planted harness bugs must surface from the seed corpus alone *)
  List.iter
    (fun name ->
      let canary = Option.get (Fuzz.Oracle.canary_of_string name) in
      let found =
        List.exists
          (fun case ->
            match (Fuzz.Oracle.classify ~canary case).Fuzz.Oracle.finding with
            | Some (Fuzz.Oracle.Canary_divergence, _) -> true
            | _ -> false)
          (Fuzz.Corpus.seeds ())
      in
      if not found then Alcotest.failf "canary %s not detected on the seed corpus" name)
    [ "shift-mask"; "cycle-skew" ]

let mutation_deterministic () =
  let seed_case = List.hd (Fuzz.Corpus.seeds ()) in
  let mutants rng_seed =
    let rng = Cycles.Rng.create ~seed:rng_seed in
    List.init 20 (fun _ -> Fuzz.Corpus.digest (Fuzz.Mutate.rounds ~rng 1 seed_case))
  in
  Alcotest.(check (list string)) "same stream" (mutants 5) (mutants 5)

let ring_mutants_keep_trampoline () =
  let case =
    List.find (fun c -> c.Fuzz.Corpus.plane = Fuzz.Corpus.Ring_batch) (Fuzz.Corpus.seeds ())
  in
  let off = Lazy.force Fuzz.Corpus.ring_data_offset in
  let rng = Cycles.Rng.create ~seed:9 in
  let prefix s = String.sub s 0 off in
  for _ = 1 to 50 do
    let m = Fuzz.Mutate.rounds ~rng 1 case in
    if m.Fuzz.Corpus.plane = Fuzz.Corpus.Ring_batch && String.length m.Fuzz.Corpus.code >= off
    then
      Alcotest.(check string)
        "trampoline prefix intact" (prefix case.Fuzz.Corpus.code)
        (prefix m.Fuzz.Corpus.code)
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "fault-plan",
        List.map QCheck_alcotest.to_alcotest
          [ prop_plan_roundtrip; prop_plan_replay_identical ] );
      ( "corpus",
        List.map QCheck_alcotest.to_alcotest
          [ prop_case_roundtrip; prop_truncation_never_raises ]
        @ [
            Alcotest.test_case "garbage rejected with typed errors" `Quick garbage_rejected;
            Alcotest.test_case "load_dir tolerates junk" `Quick load_dir_tolerates_junk;
            Alcotest.test_case "campaign corpus entries replay" `Quick corpus_entries_replay;
          ] );
      ( "shrink",
        List.map QCheck_alcotest.to_alcotest
          [ prop_shrink_preserves_check; prop_shrink_monotone; prop_shrink_bounded_calls ]
      );
      ( "coverage",
        List.map QCheck_alcotest.to_alcotest
          [ prop_coverage_idempotent; prop_coverage_buckets_monotone ] );
      ( "determinism",
        [
          Alcotest.test_case "oracle verdict is reproducible" `Quick oracle_deterministic;
          Alcotest.test_case "seed corpus is finding-free" `Quick seeds_are_clean;
          Alcotest.test_case "campaign is a function of its seed" `Quick
            campaign_deterministic;
          Alcotest.test_case "mutation stream is seeded" `Quick mutation_deterministic;
          Alcotest.test_case "ring mutants keep the trampoline" `Quick
            ring_mutants_keep_trampoline;
        ] );
      ( "canary",
        [ Alcotest.test_case "planted bugs are detected" `Quick canaries_detected ] );
    ]
