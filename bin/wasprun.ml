(* wasprun: load an assembled vx image and run it under Wasp, like
   feeding a raw binary to the paper's runtime API.

     wasprun FILE.vxa [--mode real|protected|long] [--allow read,write,...]
     wasprun --example         # run a built-in recursive-fib demo image
     wasprun --example --profile
                               # per-function / per-opcode cycle tables
     wasprun --example --record out.vxr
     wasprun --replay out.vxr  # re-execute and diff cycle-for-cycle
     wasprun --example-fault   # seeded guest fault: flight-recorder dump
     wasprun --example --chaos # run under the default fault plan
     wasprun --example --fault-plan plan.txt
                               # run under a custom fault plan
     wasprun --example --trace-json t.json --metrics
                               # telemetry: Chrome trace + metrics dump
     wasprun --check-trace t.json
                               # validate a trace-event dump (CI smoke)
     wasprun --example --repeat 8 --explain-slowest 2
                               # causal timelines of the 2 slowest runs
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Recursive fib: deep call stacks give the profiler real functions to
   attribute cycles to (start, fib, and the [vmm] residue). *)
let example_source =
  {|
; demo: recursively compute fib(12) = 144, report it via the exit hypercall
start:
  mov r1, 12
  call fib
  mov r1, r0     ; exit code = fib(12)
  mov r0, 0      ; exit(r1)
  out 1, r0
  hlt

; fib(n): argument in r1, result in r0; clobbers r2
fib:
  cmp r1, 2
  jlt fib_base
  push r1
  sub r1, 1
  call fib       ; r0 = fib(n-1)
  pop r1
  push r0
  sub r1, 2
  call fib       ; r0 = fib(n-2)
  pop r2
  add r0, r2
  ret
fib_base:
  mov r0, r1
  ret
|}

(* Hammer a hypercall past the flight ring's warm-up, then touch
   unmapped memory: the dump shows the faulting PC and the exits that
   led up to it. *)
let example_fault_source =
  {|
; demo: 40 hypercall exits, then a wild load faults the virtine
start:
  mov r2, 40
hammer:
  mov r0, 12     ; clock hypercall (denied under default policy; still exits)
  out 1, r0
  sub r2, 1
  cmp r2, 0
  jgt hammer
  mov r1, 0x7ffffff0
  ld64 r0, [r1]  ; unmapped: page fault
  hlt
|}

(* The --allow list by hypercall name; the first unknown name is the
   error. [exit] is always permitted, so naming it adds nothing. *)
let policy_of_allow names =
  List.fold_left
    (fun acc n ->
      match (acc, Wasp.Hc.of_name n) with
      | Error _, _ -> acc
      | Ok nrs, Some nr -> Ok (if nr = Wasp.Hc.exit_ then nrs else nr :: nrs)
      | Ok _, None -> Error n)
    (Ok []) names
  |> Result.map Wasp.Policy.of_list

let policy_to_string p =
  match Wasp.Policy.to_string p with
  | Some s -> s
  | None -> invalid_arg "cannot record a Custom policy"

let policy_of_string = Wasp.Policy.of_string

let mode_of_string s =
  match Vm.Modes.of_string s with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown mode %S" s)

let outcome_string = function
  | Wasp.Runtime.Exited _ -> "exited"
  | Wasp.Runtime.Faulted _ -> "faulted"
  | Wasp.Runtime.Fuel_exhausted -> "fuel"

let default_fuel = 50_000_000

(* --chaos: non-fatal turbulence (spurious exits and EPT storms perturb
   the timeline without killing the guest), so a recorded chaos run still
   exits cleanly and its .vxr replays prove plan fidelity. Scheduled
   triggers rather than probabilities: even a single short invocation
   takes visible injections. *)
let default_chaos_plan = "seed=0xC4405;spurious_exit=@0+2;ept_storm=@1+3"

(* Validate a Chrome trace-event dump: well-formed JSON, a non-empty
   traceEvents array, and the invocation phase spans present. *)
let check_trace path =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "trace invalid: %s\n" m; 1) fmt in
  match Vjs.Json.parse (read_file path) with
  | exception Vjs.Jsvalue.Js_error msg -> fail "JSON parse error: %s" msg
  | exception Sys_error msg -> fail "%s" msg
  | Vjs.Jsvalue.Obj tbl -> (
      match Hashtbl.find_opt tbl "traceEvents" with
      | Some (Vjs.Jsvalue.Arr v) ->
          let events = Vjs.Jsvalue.vec_to_list v in
          let names =
            List.filter_map
              (function
                | Vjs.Jsvalue.Obj o -> (
                    match Hashtbl.find_opt o "name" with
                    | Some (Vjs.Jsvalue.Str s) -> Some s
                    | _ -> None)
                | _ -> None)
              events
          in
          let required = [ "invocation"; "provision"; "boot"; "execute"; "clean" ] in
          let missing = List.filter (fun n -> not (List.mem n names)) required in
          if events = [] then fail "empty traceEvents"
          else if missing <> [] then
            fail "missing spans: %s" (String.concat ", " missing)
          else begin
            Printf.printf "trace ok: %d events, phases covered\n" (List.length events);
            0
          end
      | _ -> fail "no traceEvents array")
  | _ -> fail "top level is not an object"

(* --probe: compile the (repeatable, ';'-joined) probe spec. *)
let build_probes probe =
  match probe with
  | [] -> Ok None
  | specs -> (
      match Vtrace.Engine.of_string (String.concat "; " specs) with
      | Ok e -> Ok (Some e)
      | Error msg -> Error msg)

(* Probe output goes to --probe-out if given, stdout otherwise — the
   same bytes either way, so recording and replay tables can be diffed. *)
let emit_probes probes probe_out =
  match probes with
  | None -> ()
  | Some e -> (
      let text = Vtrace.Engine.render e in
      match probe_out with
      | Some path ->
          write_file path text;
          Printf.printf "probe aggregates written to %s\n" path
      | None ->
          print_newline ();
          print_string text)

(* --vhttp: one request through the ringed static-file server (§6.3 with
   the batched hypercall ring; see docs/hypercalls.md). The host
   environment is rebuilt deterministically — the static corpus plus a
   socket pair already carrying "GET /index.html" — so a recorded run
   replays byte-identically: [replay_file] recreates the same
   environment whenever the recorded image is a fileserver. *)
let setup_vhttp_env w =
  let path = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let client_end, server_end = Wasp.Hostenv.socket_pair (Wasp.Runtime.env w) in
  ignore
    (Wasp.Hostenv.send client_end
       (Bytes.of_string (Vhttp.Fileserver.request_for ~path)));
  (client_end, server_end)

let is_fileserver_image name =
  String.length name >= 10 && String.sub name 0 10 = "fileserver"

let run_vhttp ~record ~seed ~probe ~probe_out ?flight_capacity () =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "vhttp: %s\n" m; 1) fmt in
  match build_probes probe with
  | Error msg -> fail "bad probe spec: %s" msg
  | Ok probes -> (
      let compiled = Vhttp.Fileserver.compile_ring ~snapshot:false in
      match Vcc.Compile.find_virtine compiled "handle" with
      | None -> fail "ringed fileserver has no virtine handler"
      | Some vi ->
          let image = vi.Vcc.Compile.image in
          let policy = vi.Vcc.Compile.policy in
          let w = Wasp.Runtime.create ~seed ?flight_capacity () in
          Wasp.Runtime.set_probes w probes;
          let client_end, server_end = setup_vhttp_env w in
          let recorder =
            match record with
            | None -> None
            | Some _ ->
                let rc = Profiler.Replay.create () in
                Profiler.Replay.set_image rc ~name:image.Wasp.Image.name
                  ~mode:(Vm.Modes.to_string image.Wasp.Image.mode)
                  ~origin:image.Wasp.Image.origin ~entry:image.Wasp.Image.entry
                  ~mem_size:image.Wasp.Image.mem_size
                  ~code:(Bytes.to_string image.Wasp.Image.code);
                Profiler.Replay.set_env rc ~seed ~policy:(policy_to_string policy)
                  ~fuel:default_fuel ();
                Wasp.Runtime.set_recorder w (Some rc);
                Some rc
          in
          let r =
            Wasp.Runtime.run w image ~policy ~conn:server_end ~fuel:default_fuel ()
          in
          (match (recorder, record) with
          | Some rc, Some path ->
              Profiler.Replay.finish rc ~cycles:r.Wasp.Runtime.cycles
                ~outcome:(outcome_string r.Wasp.Runtime.outcome)
                ~return_value:r.Wasp.Runtime.return_value;
              write_file path (Profiler.Replay.to_string rc);
              Printf.printf "recording written to %s (%d hypercall events)\n" path
                (Profiler.Replay.event_count rc)
          | _ -> ());
          emit_probes probes probe_out;
          let response = Bytes.to_string (Wasp.Hostenv.recv client_end ~max:8192) in
          (match r.Wasp.Runtime.outcome with
          | Wasp.Runtime.Exited code ->
              Printf.printf
                "served %d response bytes, exited with %Ld  [%.1f us, %d hypercalls]\n"
                (String.length response) code
                (Cycles.Clock.to_us (Wasp.Runtime.clock w) r.Wasp.Runtime.cycles)
                r.Wasp.Runtime.hypercalls;
              0
          | Wasp.Runtime.Faulted f ->
              Printf.printf "faulted: %s\n"
                (Format.asprintf "%a" Vm.Cpu.pp_exit (Vm.Cpu.Fault f));
              1
          | Wasp.Runtime.Fuel_exhausted ->
              print_endline "out of fuel";
              1))

(* Re-execute a .vxr recording under the recorded seed/policy/fuel and
   diff the fresh transcript against it, cycle for cycle. *)
let replay_file ~probe ~probe_out ?flight_capacity path =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "replay: %s\n" m; 1) fmt in
  match Profiler.Replay.of_string (read_file path) with
  | exception Sys_error msg -> fail "%s" msg
  | Error msg -> fail "cannot parse %s: %s" path msg
  | Ok recorded -> (
      match
        ( mode_of_string (Profiler.Replay.mode recorded),
          policy_of_string (Profiler.Replay.policy recorded) )
      with
      | Error msg, _ | _, Error msg -> fail "%s" msg
      | Ok mode, Ok policy ->
          match build_probes probe with
          | Error msg -> fail "bad probe spec: %s" msg
          | Ok probes ->
          let image : Wasp.Image.t =
            {
              name = Profiler.Replay.image_name recorded;
              code = Bytes.of_string (Profiler.Replay.code recorded);
              origin = Profiler.Replay.origin recorded;
              entry = Profiler.Replay.entry recorded;
              mode;
              mem_size = Profiler.Replay.mem_size recorded;
              symbols = [];
            }
          in
          let w =
            Wasp.Runtime.create ~seed:(Profiler.Replay.seed recorded) ?flight_capacity ()
          in
          Wasp.Runtime.set_probes w probes;
          (* Chaos recordings carry their fault plan; re-arm an identical
             one so injected turbulence reproduces cycle-for-cycle. *)
          let plan_err = ref None in
          (match Profiler.Replay.fault_plan recorded with
          | Some text -> (
              match Cycles.Fault_plan.of_string text with
              | Ok plan -> Wasp.Runtime.set_fault_plan w (Some plan)
              | Error msg -> plan_err := Some msg)
          | None -> ());
          if !plan_err <> None then fail "bad recorded fault plan: %s" (Option.get !plan_err)
          else begin
          let fresh = Profiler.Replay.create () in
          Profiler.Replay.set_image fresh ~name:image.name
            ~mode:(Vm.Modes.to_string image.mode) ~origin:image.origin ~entry:image.entry
            ~mem_size:image.mem_size
            ~code:(Bytes.to_string image.code);
          Profiler.Replay.set_env fresh
            ?fault_plan:(Profiler.Replay.fault_plan recorded)
            ~seed:(Profiler.Replay.seed recorded)
            ~policy:(Profiler.Replay.policy recorded)
            ~fuel:(Profiler.Replay.fuel recorded) ();
          Wasp.Runtime.set_recorder w (Some fresh);
          (* Fileserver recordings (--vhttp) need the host environment the
             recording ran against: rebuild the corpus + pending request. *)
          let conn =
            if is_fileserver_image image.name then Some (snd (setup_vhttp_env w))
            else None
          in
          let r =
            Wasp.Runtime.run w image ~policy ?conn
              ~fuel:(Profiler.Replay.fuel recorded) ()
          in
          Profiler.Replay.finish fresh ~cycles:r.Wasp.Runtime.cycles
            ~outcome:(outcome_string r.Wasp.Runtime.outcome)
            ~return_value:r.Wasp.Runtime.return_value;
          emit_probes probes probe_out;
          (match Profiler.Replay.diff recorded fresh with
          | [] ->
              Printf.printf
                "replay ok: zero divergence (%d hypercall events, %Ld cycles, outcome %s)\n"
                (Profiler.Replay.event_count recorded)
                (Profiler.Replay.total_cycles recorded)
                (Profiler.Replay.outcome recorded);
              0
          | divergences ->
              Printf.eprintf "replay DIVERGED (%d differences):\n" (List.length divergences);
              List.iter (fun d -> Printf.eprintf "  %s\n" d) divergences;
              1)
          end)

(* --mem-stats: page-sharing figures for the run, read back from the
   gauges the runtime maintains plus the process-wide page cache. *)
let print_mem_stats hub w =
  let m = Telemetry.Hub.metrics hub in
  let gauge name =
    match Telemetry.Metrics.find m name with
    | Some (Telemetry.Metrics.Gauge g) -> int_of_float g.Telemetry.Metrics.g_value
    | _ -> 0
  in
  let resident = gauge "wasp_mem_resident_pages" in
  let shared = gauge "wasp_mem_shared_pages" in
  let ept = (Kvmsim.Kvm.stats (Wasp.Runtime.kvm w)).Kvmsim.Kvm.ept_violations in
  let hits = Vm.Memory.Page_cache.hits () in
  let misses = Vm.Memory.Page_cache.misses () in
  let interned = hits + misses in
  let dedup =
    if interned = 0 then 0.0 else float_of_int hits /. float_of_int interned
  in
  print_newline ();
  print_endline "--- memory ---";
  Printf.printf "resident pages    %d (%d KB private)\n" resident (resident * 4);
  Printf.printf "shared pages      %d (refs into the page cache)\n" shared;
  Printf.printf "cow faults        %d (EPT write-protection violations)\n" ept;
  Printf.printf "page cache        %d pages, %d KB\n"
    (Vm.Memory.Page_cache.entries ())
    (Vm.Memory.Page_cache.bytes () / 1024);
  Printf.printf "dedup ratio       %.2f (%d of %d interned pages were already resident)\n"
    dedup hits interned;
  print_endline "--------------"

let run file example example_fault vhttp mode allow all trace_json metrics mem_stats check
    profile profile_folded record replay seed chaos fault_plan_file repeat
    explain_slowest probe probe_out flight_capacity =
  match (check, replay) with
  | _ when (match flight_capacity with Some n -> n < 1 | None -> false) ->
      prerr_endline "error: --flight-capacity must be >= 1";
      1
  | Some path, _ -> check_trace path
  | None, Some path -> replay_file ~probe ~probe_out ?flight_capacity path
  | None, None when vhttp -> run_vhttp ~record ~seed ~probe ~probe_out ?flight_capacity ()
  | None, None -> (
      let source =
        if example then Some example_source
        else if example_fault then Some example_fault_source
        else match file with Some f -> Some (read_file f) | None -> None
      in
      match source with
      | None ->
          prerr_endline "error: pass an assembly file or --example / --example-fault";
          1
      | Some src -> (
          match Asm.assemble_string ~origin:Wasp.Layout.image_base src with
          | exception Asm.Asm_error msg ->
              Printf.eprintf "assembly error: %s\n" msg;
              1
          | program -> (
              let image = Wasp.Image.of_program ~name:"wasprun" ~mode program in
              match policy_of_allow allow with
              | Error name ->
                  Printf.eprintf "error: --allow: unknown hypercall %S\n" name;
                  1
              | Ok allowed ->
              let policy = if all then Wasp.Policy.allow_all else allowed in
              let plan_result =
                match (fault_plan_file, chaos) with
                | Some path, _ -> (
                    match Cycles.Fault_plan.of_string (read_file path) with
                    | Ok p -> Ok (Some p)
                    | Error msg -> Error msg
                    | exception Sys_error msg -> Error msg)
                | None, true -> (
                    match Cycles.Fault_plan.of_string default_chaos_plan with
                    | Ok p -> Ok (Some p)
                    | Error msg -> Error msg)
                | None, false -> Ok None
              in
              match plan_result with
              | Error msg ->
                  Printf.eprintf "error: fault plan: %s\n" msg;
                  1
              | Ok _ when repeat < 1 ->
                  prerr_endline "error: --repeat must be >= 1";
                  1
              | Ok _ when record <> None && repeat > 1 ->
                  prerr_endline "error: --record captures a single invocation; drop --repeat";
                  1
              | Ok plan ->
              match build_probes probe with
              | Error msg ->
                  Printf.eprintf "error: bad probe spec: %s\n" msg;
                  1
              | Ok probes ->
              let w = Wasp.Runtime.create ~seed ?flight_capacity () in
              Wasp.Runtime.set_probes w probes;
              (match plan with
              | Some p -> Wasp.Runtime.set_fault_plan w (Some p)
              | None -> ());
              let hub =
                if trace_json <> None || metrics || mem_stats || explain_slowest > 0
                then begin
                  let h = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
                  (* ids come from the same --seed, so --explain-slowest
                     prints byte-identical timelines across runs *)
                  if explain_slowest > 0 then Telemetry.Hub.enable_tracing h ~seed;
                  Wasp.Runtime.set_telemetry w (Some h);
                  Some h
                end
                else None
              in
              (match (probes, hub) with
              | Some e, Some h ->
                  Vtrace.Engine.set_metrics e (Some (Telemetry.Hub.metrics h))
              | _ -> ());
              let prof =
                if profile || profile_folded <> None then begin
                  let p = Profiler.Profile.create () in
                  Wasp.Runtime.set_profiler w (Some p);
                  Some p
                end
                else None
              in
              let recorder =
                match record with
                | None -> None
                | Some _ ->
                    let rc = Profiler.Replay.create () in
                    Profiler.Replay.set_image rc ~name:image.Wasp.Image.name
                      ~mode:(Vm.Modes.to_string image.Wasp.Image.mode)
                      ~origin:image.Wasp.Image.origin ~entry:image.Wasp.Image.entry
                      ~mem_size:image.Wasp.Image.mem_size
                      ~code:(Bytes.to_string image.Wasp.Image.code);
                    Profiler.Replay.set_env rc
                      ?fault_plan:(Option.map Cycles.Fault_plan.to_string plan)
                      ~seed ~policy:(policy_to_string policy) ~fuel:default_fuel ();
                    Wasp.Runtime.set_recorder w (Some rc);
                    Some rc
              in
              Printf.printf "loaded %d bytes at 0x%x (%s mode), policy %s\n"
                (Wasp.Image.size image) image.Wasp.Image.origin
                (Vm.Modes.to_string image.Wasp.Image.mode)
                (Format.asprintf "%a" Wasp.Policy.pp policy);
              let r = ref (Wasp.Runtime.run w image ~policy ~fuel:default_fuel ()) in
              for _ = 2 to repeat do
                r := Wasp.Runtime.run w image ~policy ~fuel:default_fuel ()
              done;
              let r = !r in
              if r.Wasp.Runtime.console <> "" then
                Printf.printf "--- console ---\n%s---------------\n" r.Wasp.Runtime.console;
              let trace_write_failed =
                match (trace_json, hub) with
                | Some path, Some h -> (
                    match write_file path (Telemetry.Chrome.to_json h) with
                    | () ->
                        Printf.printf
                          "trace written to %s (load it in about://tracing or Perfetto)\n" path;
                        false
                    | exception Sys_error msg ->
                        Printf.eprintf "error: cannot write trace: %s\n" msg;
                        true)
                | _ -> false
              in
              (match prof with
              | Some p ->
                  (match hub with Some h -> Profiler.Profile.export p h | None -> ());
                  if profile then begin
                    print_newline ();
                    print_string (Profiler.Profile.render p)
                  end;
                  (match profile_folded with
                  | Some path ->
                      write_file path (Profiler.Profile.folded_lines p);
                      Printf.printf "folded stacks written to %s (flamegraph.pl input)\n" path
                  | None -> ())
              | None -> ());
              (match (recorder, record) with
              | Some rc, Some path ->
                  Profiler.Replay.finish rc ~cycles:r.Wasp.Runtime.cycles
                    ~outcome:(outcome_string r.Wasp.Runtime.outcome)
                    ~return_value:r.Wasp.Runtime.return_value;
                  write_file path (Profiler.Replay.to_string rc);
                  Printf.printf "recording written to %s (%d hypercall events)\n" path
                    (Profiler.Replay.event_count rc)
              | _ -> ());
              (match (probes, hub) with
              | Some e, Some h -> Vtrace.Engine.export e (Telemetry.Hub.metrics h)
              | _ -> ());
              emit_probes probes probe_out;
              (match hub with
              | Some h when metrics ->
                  print_newline ();
                  print_string (Telemetry.Summary.render h);
                  print_newline ();
                  print_string (Telemetry.Prometheus.to_text (Telemetry.Hub.metrics h))
              | _ -> ());
              (match hub with
              | Some h when mem_stats -> print_mem_stats h w
              | _ -> ());
              (match hub with
              | Some h when explain_slowest > 0 ->
                  print_newline ();
                  print_string
                    (Profiler.Explain.slowest ~n:explain_slowest ~hub:h
                       ~flight:(Wasp.Runtime.flight w) ())
              | _ -> ());
              (match plan with
              | Some p ->
                  Printf.printf "chaos: %d faults injected under plan %s\n"
                    (Cycles.Fault_plan.total_injected p)
                    (Cycles.Fault_plan.to_string p)
              | None -> ());
              (match r.Wasp.Runtime.outcome with
              | Wasp.Runtime.Exited code ->
                  Printf.printf "exited with %Ld  [%.1f us, %d hypercalls, %d denied]\n" code
                    (Cycles.Clock.to_us (Wasp.Runtime.clock w) r.Wasp.Runtime.cycles)
                    r.Wasp.Runtime.hypercalls r.Wasp.Runtime.denied;
                  if trace_write_failed then 1 else 0
              | Wasp.Runtime.Faulted f ->
                  Printf.printf "faulted: %s\n"
                    (Format.asprintf "%a" Vm.Cpu.pp_exit (Vm.Cpu.Fault f));
                  (match Wasp.Runtime.flight_dump w with
                  | Some dump ->
                      print_newline ();
                      print_string dump
                  | None -> ());
                  1
              | Wasp.Runtime.Fuel_exhausted ->
                  print_endline "out of fuel";
                  1))))

let () =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.vxa") in
  let example =
    Arg.(value & flag & info [ "example" ] ~doc:"Run a built-in recursive-fib demo image")
  in
  let example_fault =
    Arg.(
      value & flag
      & info [ "example-fault" ]
          ~doc:
            "Run a built-in demo that faults after a burst of hypercalls, printing the \
             flight-recorder black-box dump")
  in
  let vhttp =
    Arg.(
      value & flag
      & info [ "vhttp" ]
          ~doc:
            "Serve one request through the ringed static-file server (batched \
             hypercalls, two VM exits). Combine with $(b,--record) to capture a \
             .vxr whose $(b,--replay) rebuilds the same host environment")
  in
  let mode =
    let modes =
      [ ("real", Vm.Modes.Real); ("protected", Vm.Modes.Protected); ("long", Vm.Modes.Long) ]
    in
    Arg.(value & opt (enum modes) Vm.Modes.Long & info [ "m"; "mode" ])
  in
  let allow =
    Arg.(
      value
      & opt (list string) []
      & info [ "allow" ] ~docv:"HC,..."
          ~doc:"Hypercalls to permit, by name (default deny); an unknown name is an error")
  in
  let all = Arg.(value & flag & info [ "permissive" ] ~doc:"Allow all hypercalls") in
  let trace_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace-event JSON dump of the invocation's spans to $(docv)")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the telemetry summary and Prometheus-style metrics after the run")
  in
  let mem_stats =
    Arg.(
      value & flag
      & info [ "mem-stats" ]
          ~doc:
            "Print page-sharing statistics after the run: resident and shared pages, CoW \
             faults, page-cache occupancy and dedup ratio")
  in
  let check =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-trace" ] ~docv:"FILE"
          ~doc:"Validate a previously written trace-event JSON dump and exit")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Profile the guest: print per-function and per-opcode cycle tables after the \
             run (exact attribution; totals equal the execute phase)")
  in
  let profile_folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-folded" ] ~docv:"FILE"
          ~doc:"Write folded call stacks (flamegraph collapse format) to $(docv)")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE.vxr"
          ~doc:
            "Record the invocation (image, seed, policy, hypercall transcript) to $(docv) \
             for deterministic replay")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE.vxr"
          ~doc:
            "Re-execute a recorded invocation under the recorded seed and diff the fresh \
             transcript cycle-for-cycle against the recording")
  in
  let seed =
    Arg.(
      value & opt int 0xACE
      & info [ "seed" ] ~docv:"N" ~doc:"Runtime RNG seed (recorded into .vxr files)")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Run under the built-in non-fatal fault plan (spurious VM exits and EPT \
             storms); recorded .vxr files embed the plan so replays reproduce the \
             turbulence cycle-for-cycle")
  in
  let fault_plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"FILE"
          ~doc:
            "Run under the fault plan read from $(docv) (site=trigger lines; see \
             docs/robustness.md). Overrides $(b,--chaos)")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"K"
          ~doc:
            "Run the image $(docv) times in one runtime (pool and caches stay warm), so \
             $(b,--explain-slowest) has a population to rank")
  in
  let explain_slowest =
    Arg.(
      value & opt int 0
      & info [ "explain-slowest" ] ~docv:"N"
          ~doc:
            "After the run, print the full causal timeline (span tree, VM exits, faults, \
             retries, exemplars) of the $(docv) slowest invocations. Enables request \
             tracing, seeded by $(b,--seed), so the report is identical across runs")
  in
  let probe =
    Arg.(
      value
      & opt_all string []
      & info [ "probe" ] ~docv:"SPEC"
          ~doc:
            "Attach a vtrace probe (repeatable; see docs/vtrace.md), e.g. \
             $(b,'exit { count() by (reason) }'). Probes charge zero simulated \
             cycles; aggregate tables print after the run. Works with $(b,--replay) \
             too, so recorded and replayed tables can be diffed")
  in
  let probe_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "probe-out" ] ~docv:"FILE"
          ~doc:"Write the probe aggregate tables to $(docv) instead of stdout")
  in
  let flight_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "flight-capacity" ] ~docv:"N"
          ~doc:"Size of the VM-exit flight ring (default 128)")
  in
  let cmd =
    Cmd.v
      (Cmd.info "wasprun" ~doc:"run a vx assembly image under the Wasp micro-hypervisor")
      Term.(
        const run $ file $ example $ example_fault $ vhttp $ mode $ allow $ all $ trace_json
        $ metrics $ mem_stats $ check $ profile $ profile_folded $ record $ replay $ seed
        $ chaos $ fault_plan $ repeat $ explain_slowest $ probe $ probe_out
        $ flight_capacity)
  in
  exit (Cmd.eval' cmd)
