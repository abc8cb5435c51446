(* Guest profiler, flight recorder, and deterministic record/replay. *)

let fib_src =
  {|
start:
  mov r1, 10
  call fib
  mov r1, r0
  mov r0, 0
  out 1, r0
  hlt
fib:
  cmp r1, 2
  jlt fib_base
  push r1
  sub r1, 1
  call fib
  pop r1
  push r0
  sub r1, 2
  call fib
  pop r2
  add r0, r2
  ret
fib_base:
  mov r0, r1
  ret
|}

(* 40 hypercall exits, then a wild load faults the guest. *)
let fault_src =
  {|
start:
  mov r2, 40
hammer:
  mov r0, 12
  out 1, r0
  sub r2, 1
  cmp r2, 0
  jgt hammer
  mov r1, 0x7ffffff0
  ld64 r0, [r1]
  hlt
|}

let fib_image () = Wasp.Image.of_asm_string ~name:"fib" fib_src

let execute_cycles hub =
  List.fold_left
    (fun acc (s : Telemetry.Span.span) ->
      if s.Telemetry.Span.name = "execute" then Int64.add acc s.Telemetry.Span.duration
      else acc)
    0L
    (Telemetry.Span.spans (Telemetry.Hub.spans hub))

(* The acceptance property: with an exact profiler attached, the
   per-function cycle totals (guest functions + [vmm]) sum to the
   execute span's duration, to the cycle. *)
let test_conservation () =
  let w = Wasp.Runtime.create () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  let p = Profiler.Profile.create () in
  Wasp.Runtime.set_profiler w (Some p);
  let r = Wasp.Runtime.run w (fib_image ()) () in
  (match r.Wasp.Runtime.outcome with
  | Wasp.Runtime.Exited v -> Alcotest.(check int64) "fib(10)" 55L v
  | _ -> Alcotest.fail "expected clean exit");
  let exec = execute_cycles hub in
  Alcotest.(check bool) "execute span nonzero" true (Int64.compare exec 0L > 0);
  Alcotest.(check int64) "profiler total = execute span" exec
    (Profiler.Profile.total_cycles p);
  let row_sum =
    List.fold_left
      (fun acc (row : Profiler.Profile.fn_row) -> Int64.add acc row.Profiler.Profile.row_cycles)
      0L (Profiler.Profile.functions p)
  in
  Alcotest.(check int64) "fn rows sum to execute span" exec row_sum;
  Alcotest.(check bool) "guest cycles nonzero" true
    (Int64.compare (Profiler.Profile.guest_cycles p) 0L > 0);
  Alcotest.(check bool) "vmm residue nonzero" true
    (Int64.compare (Profiler.Profile.host_cycles p) 0L > 0)

(* The same conservation property on a vcc-compiled virtine: the
   profiler's symbols come from the compiler's emitted labels. *)
let test_conservation_vcc () =
  let src = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }" in
  let compiled = Vcc.Compile.compile ~snapshot:false ~name:"pfib" src in
  let w = Wasp.Runtime.create () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  let p = Profiler.Profile.create () in
  Wasp.Runtime.set_profiler w (Some p);
  let r = Vcc.Compile.invoke w compiled "fib" [ 9L ] () in
  Alcotest.(check int64) "fib(9)" 34L r.Wasp.Runtime.return_value;
  Alcotest.(check int64) "vcc profile conserves execute span" (execute_cycles hub)
    (Profiler.Profile.total_cycles p);
  let names =
    List.map (fun (row : Profiler.Profile.fn_row) -> row.Profiler.Profile.row_name)
      (Profiler.Profile.functions p)
  in
  Alcotest.(check bool) "fn_fib attributed" true (List.mem "fn_fib" names)

let test_symbolization_and_folded () =
  let w = Wasp.Runtime.create () in
  let p = Profiler.Profile.create () in
  Wasp.Runtime.set_profiler w (Some p);
  ignore (Wasp.Runtime.run w (fib_image ()) ());
  let rows = Profiler.Profile.functions p in
  let find name =
    List.find_opt (fun (r : Profiler.Profile.fn_row) -> r.Profiler.Profile.row_name = name) rows
  in
  (match find "fib" with
  | Some row ->
      Alcotest.(check bool) "fib has calls" true (row.Profiler.Profile.row_calls > 0);
      Alcotest.(check bool) "fib has instrs" true (row.Profiler.Profile.row_instrs > 0)
  | None -> Alcotest.fail "no 'fib' row");
  Alcotest.(check bool) "start attributed" true (find "start" <> None);
  Alcotest.(check bool) "[vmm] attributed" true (find Profiler.Profile.vmm_name <> None);
  let stacks =
    List.map
      (fun line -> match String.rindex_opt line ' ' with Some i -> String.sub line 0 i | None -> line)
      (String.split_on_char '\n' (Profiler.Profile.folded_lines p))
  in
  Alcotest.(check bool) "recursive stack present" true (List.mem "start;fib;fib" stacks)

let test_sampled_mode () =
  let w = Wasp.Runtime.create () in
  let p = Profiler.Profile.create ~mode:(Profiler.Profile.Sampled 100) () in
  Wasp.Runtime.set_profiler w (Some p);
  ignore (Wasp.Runtime.run w (fib_image ()) ());
  let samples =
    List.fold_left
      (fun acc (r : Profiler.Profile.fn_row) -> acc + r.Profiler.Profile.row_samples)
      0 (Profiler.Profile.functions p)
  in
  Alcotest.(check bool) "samples taken" true (samples > 0);
  (* fib(10) retires ~4-5K guest cycles; a 100-cycle budget fires a
     sample per crossed boundary, so expect a meaningful count *)
  Alcotest.(check bool) "sample count tracks cycle budget" true (samples > 10);
  (* sampled rows estimate cycles as samples * interval *)
  List.iter
    (fun (r : Profiler.Profile.fn_row) ->
      if r.Profiler.Profile.row_name <> Profiler.Profile.vmm_name then
        Alcotest.(check int64)
          ("estimate for " ^ r.Profiler.Profile.row_name)
          (Int64.of_int (r.Profiler.Profile.row_samples * 100))
          r.Profiler.Profile.row_cycles)
    (Profiler.Profile.functions p)

let test_profile_export () =
  let w = Wasp.Runtime.create () in
  let hub = Telemetry.Hub.create ~clock:(Wasp.Runtime.clock w) () in
  Wasp.Runtime.set_telemetry w (Some hub);
  let p = Profiler.Profile.create () in
  Wasp.Runtime.set_profiler w (Some p);
  ignore (Wasp.Runtime.run w (fib_image ()) ());
  Profiler.Profile.export p hub;
  let text = Telemetry.Prometheus.to_text (Telemetry.Hub.metrics hub) in
  Alcotest.(check bool) "labeled fn series exported" true
    (let open String in
     length text > 0
     &&
     let re = {|wasp_profile_fn_cycles{fn="fib"}|} in
     let rec contains i =
       i + length re <= length text && (sub text i (length re) = re || contains (i + 1))
     in
     contains 0)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_flight_fault_dump () =
  let img = Wasp.Image.of_asm_string ~name:"faulty" fault_src in
  let w = Wasp.Runtime.create () in
  let r = Wasp.Runtime.run w img () in
  (match r.Wasp.Runtime.outcome with
  | Wasp.Runtime.Faulted _ -> ()
  | _ -> Alcotest.fail "expected a fault");
  match Wasp.Runtime.flight_dump w with
  | None -> Alcotest.fail "no flight dump after a guest fault"
  | Some dump ->
      Alcotest.(check bool) "dump names the fault" true
        (count_substring dump "guest fault" > 0);
      (* the faulting instruction's true PC (rewound on fault) *)
      Alcotest.(check bool) "dump holds the faulting pc" true
        (count_substring dump "0x8040" > 0);
      Alcotest.(check bool) "dump holds the fault entry" true
        (count_substring dump "page fault" > 0);
      Alcotest.(check bool) ">= 32 preceding exits retained" true
        (count_substring dump "io_out" >= 32);
      Alcotest.(check bool) "hypercall annotations attached" true
        (count_substring dump "clock(" >= 32)

let test_flight_policy_violation () =
  (* one denied hypercall (clock under deny_all), then exit cleanly *)
  let src = {|
start:
  mov r0, 12
  out 1, r0
  mov r1, 7
  mov r0, 0
  out 1, r0
  hlt
|} in
  let img = Wasp.Image.of_asm_string ~name:"denied" src in
  let w = Wasp.Runtime.create () in
  let r = Wasp.Runtime.run w img () in
  Alcotest.(check int) "hypercall denied" 1 r.Wasp.Runtime.denied;
  match Wasp.Runtime.flight_dump w with
  | None -> Alcotest.fail "no flight dump after a policy violation"
  | Some dump ->
      Alcotest.(check bool) "dump names the violation" true
        (count_substring dump "policy violation" > 0);
      Alcotest.(check bool) "dump names the denied hypercall" true
        (count_substring dump "clock" > 0)

let test_flight_ring_bounds () =
  let fr = Profiler.Flight.create ~capacity:4 () in
  for i = 0 to 9 do
    Profiler.Flight.record fr ~at:(Int64.of_int (100 * i)) ~core:0 ~pc:i
      (Profiler.Flight.Exit Vm.Cpu.Halt)
  done;
  Alcotest.(check bool) "total counts all, ring retains capacity" true
    (count_substring (Profiler.Flight.dump fr ~reason:"t") "10 VM exits recorded, last 4 retained"
    = 1);
  let entries = Profiler.Flight.entries fr in
  Alcotest.(check (list int)) "oldest-first, newest retained" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Profiler.Flight.entry) -> e.Profiler.Flight.pc) entries)

let test_flight_wraparound_keeps_stamps () =
  (* two cores stamp the same ring; after wraparound every survivor must
     keep its own trace id, hypercall annotation and appended vtrace
     note — the probe engine's stamp rides the same entry. *)
  let fr = Profiler.Flight.create ~capacity:8 () in
  for i = 0 to 11 do
    Profiler.Flight.record fr
      ~trace:(Int64.of_int (1000 + i))
      ~at:(Int64.of_int (10 * i))
      ~core:(i mod 2) ~pc:i
      (Profiler.Flight.Exit (Vm.Cpu.Io_out { port = 1; value = Int64.of_int i }));
    Profiler.Flight.append_note fr (Printf.sprintf "hc(%d)" i);
    Profiler.Flight.append_note fr "vtrace"
  done;
  Alcotest.(check bool) "total counts every record, ring holds capacity" true
    (count_substring (Profiler.Flight.dump fr ~reason:"t") "12 VM exits recorded, last 8 retained"
    = 1);
  let entries = Profiler.Flight.entries fr in
  Alcotest.(check (list int)) "oldest survivor is seq 4" [ 4; 5; 6; 7; 8; 9; 10; 11 ]
    (List.map (fun (e : Profiler.Flight.entry) -> e.Profiler.Flight.seq) entries);
  List.iter
    (fun (e : Profiler.Flight.entry) ->
      Alcotest.(check int)
        "cores interleave across the wrap" (e.Profiler.Flight.seq mod 2)
        e.Profiler.Flight.core;
      Alcotest.(check (option int64))
        "trace id survives the wrap"
        (Some (Int64.of_int (1000 + e.Profiler.Flight.seq)))
        e.Profiler.Flight.trace;
      Alcotest.(check bool) "annotation and vtrace stamp both survive" true
        (String.ends_with
           ~suffix:(Printf.sprintf "  ; hc(%d); vtrace" e.Profiler.Flight.seq)
           (Format.asprintf "%a" Profiler.Flight.pp_entry e)))
    entries

(* ------------------------------------------------------------------ *)
(* Record / replay                                                     *)
(* ------------------------------------------------------------------ *)

let ok = function Ok x -> x | Error e -> Alcotest.fail e

(* The return value a recording's [.vxr] trailer carries *)
let recorded_ret rc =
  List.find_map
    (fun l -> Scanf.sscanf_opt l "ret %s%!" Fun.id)
    (String.split_on_char '\n' (Profiler.Replay.to_string rc))
  |> Option.get

let record_invocation ?(seed = 0xACE) () =
  let img = fib_image () in
  let w = Wasp.Runtime.create ~seed () in
  let rc = ok (Wasp.Runtime.record w img Wasp.Policy.deny_all ~fuel:1_000_000) in
  ignore (Wasp.Runtime.run w img ~fuel:1_000_000 ());
  rc

let test_replay_zero_divergence () =
  let a = record_invocation () in
  let b = record_invocation () in
  Alcotest.(check (list string)) "same seed replays cycle-for-cycle" []
    (Profiler.Replay.diff a b);
  Alcotest.(check bool) "transcript nonempty" true (Profiler.Replay.event_count a > 0)

let test_replay_divergence_detected () =
  let a = record_invocation ~seed:0xACE () in
  let b = record_invocation ~seed:0xBEEF () in
  let divs = Profiler.Replay.diff a b in
  Alcotest.(check bool) "different seed diverges" true (divs <> []);
  Alcotest.(check bool) "seed divergence reported" true
    (List.exists (fun d -> count_substring d "seed" > 0) divs)

let test_vxr_round_trip () =
  let rc = record_invocation () in
  let text = Profiler.Replay.to_string rc in
  match Profiler.Replay.of_string text with
  | Error m -> Alcotest.fail ("round trip failed: " ^ m)
  | Ok parsed ->
      Alcotest.(check string) "serialization is stable" text
        (Profiler.Replay.to_string parsed);
      Alcotest.(check (list string)) "parsed recording diffs clean" []
        (Profiler.Replay.diff rc parsed);
      Alcotest.(check bool) "md5 preserved" true (count_substring text "\nmd5 " = 1)

let test_vxr_tamper_detected () =
  let rc = record_invocation () in
  let text = Profiler.Replay.to_string rc in
  (* flip one byte of the image hex payload *)
  let idx =
    let marker = "\ncode " in
    let rec find i =
      if String.sub text i (String.length marker) = marker then i + String.length marker
      else find (i + 1)
    in
    find 0
  in
  let tampered = Bytes.of_string text in
  Bytes.set tampered idx (if Bytes.get tampered idx = '0' then '1' else '0');
  (match Profiler.Replay.of_string (Bytes.to_string tampered) with
  | Error m ->
      Alcotest.(check bool) "md5 mismatch reported" true (count_substring m "md5" > 0)
  | Ok _ -> Alcotest.fail "tampered image accepted");
  match Profiler.Replay.of_string "not a recording" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* A .vxr recorded by wasprun BEFORE the paged-memory refactor, embedded
   verbatim. Replaying it with zero divergence (same per-event clocks,
   same 365944-cycle total) pins down that the paged store left the cold
   execution path cycle-identical: zero-fill faults charge nothing and
   the image md5 is computed over the same bytes. *)
let pre_refactor_vxr =
  "vxr1\n\
   image wasprun\n\
   mode long\n\
   origin 32768\n\
   entry 32768\n\
   mem_size 65536\n\
   seed 2766\n\
   policy mask:0\n\
   fuel 50000000\n\
   md5 b3a644c2024fc81d71b188f5ef521273\n\
   code \
   0201800c0000000000000022228000000201000200800000000000000000400100001d0180020000000000000021025f800000250111018001000000000000002222800000260125001101800200000000000000222280000026021000022402000124\n\
   hc 349918 0 0 144 89 0 0 0\n\
   total 365944\n\
   outcome exited\n\
   ret 144\n"

let test_replay_pre_refactor_fixture () =
  let fresh, verdict = ok (Wasp.Runtime.replay pre_refactor_vxr) in
  Alcotest.(check (list string)) "pre-refactor recording replays clean" [] verdict;
  Alcotest.(check int64) "cycle total preserved across the refactor" 365944L
    (Profiler.Replay.total_cycles fresh)

let test_image_matches () =
  let rc = record_invocation () in
  let code = Bytes.of_string (Profiler.Replay.code rc) in
  Alcotest.(check bool) "recorded bytes match" true
    (Profiler.Replay.image_matches rc code);
  (* the logical view is what the runtime reads back from the paged
     store; a fresh paged roundtrip must still match the recorded md5 *)
  let mem = Vm.Memory.create ~size:(Bytes.length code + 4096) in
  Vm.Memory.write_bytes mem ~off:0 code;
  let view = Vm.Memory.read_bytes mem ~off:0 ~len:(Bytes.length code) in
  Alcotest.(check bool) "paged view matches" true
    (Profiler.Replay.image_matches rc view);
  let tampered = Bytes.copy code in
  Bytes.set tampered 0 (Char.chr (Char.code (Bytes.get tampered 0) lxor 1));
  Alcotest.(check bool) "tampered view rejected" false
    (Profiler.Replay.image_matches rc tampered)

(* Text surgery on a serialized recording. *)
let drop_line key text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> not (String.starts_with ~prefix:(key ^ " ") l))
  |> String.concat "\n"

let replace_line ~prefix ~by text =
  String.split_on_char '\n' text
  |> List.map (fun l -> if String.starts_with ~prefix l then by l else l)
  |> String.concat "\n"

let rejects what text =
  match Profiler.Replay.of_string text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" what

let test_vxr_md5_line_required () =
  let text = Profiler.Replay.to_string (record_invocation ()) in
  (* flip one code nibble and drop the md5 line that would catch it *)
  let tampered =
    replace_line ~prefix:"code " text ~by:(fun l ->
        let b = Bytes.of_string l in
        Bytes.set b 5 (if Bytes.get b 5 = '0' then '1' else '0');
        Bytes.to_string b)
    |> drop_line "md5"
  in
  rejects "tampered image with no md5 line" tampered;
  rejects "untampered image with no md5 line" (drop_line "md5" text)

let test_vxr_header_lines_required () =
  let text = Profiler.Replay.to_string (record_invocation ()) in
  List.iter
    (fun key -> rejects ("no " ^ key ^ " line") (drop_line key text))
    [ "image"; "mode"; "origin"; "entry"; "mem_size"; "seed"; "policy"; "fuel"; "code";
      "total"; "outcome"; "ret" ]

let test_vxr_no_line_overrides () =
  let text = Profiler.Replay.to_string (record_invocation ()) in
  rejects "a second policy line after ret" (text ^ "policy allow_all\n");
  rejects "a second seed line" (text ^ "seed 1\n");
  rejects "two faultplan lines"
    (replace_line ~prefix:"md5 " text ~by:(fun l ->
         "faultplan seed=0x1;spurious_exit=@0+2\nfaultplan seed=0x2;spurious_exit=@0+2\n" ^ l))

(* The ringed file server's host environment: the static corpus plus a
   socket pair already carrying one request; returns the server end. *)
let vhttp_env w =
  let path = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let client, server = Wasp.Hostenv.socket_pair (Wasp.Runtime.env w) in
  ignore (Wasp.Hostenv.send client (Bytes.of_string (Vhttp.Fileserver.request_for ~path)));
  server

let chaos_plan_text = "seed=0xC4405;spurious_exit=@0+2;ept_storm=@1+3"

(* A recording made the way [wasprun --example --chaos --record] makes one:
   the plan armed and recorded in its [to_string] spelling. *)
let record_chaos () =
  let img = fib_image () in
  let w = Wasp.Runtime.create () in
  let plan = ok (Cycles.Fault_plan.of_string chaos_plan_text) in
  Wasp.Runtime.set_fault_plan w (Some plan);
  let rc =
    ok
      (Wasp.Runtime.record w ~fault_plan:(Cycles.Fault_plan.to_string plan) img
         (Wasp.Policy.Mask 0L) ~fuel:50_000_000)
  in
  ignore (Wasp.Runtime.run w img ~policy:(Wasp.Policy.Mask 0L) ());
  Alcotest.(check bool) "the plan injected" true (Cycles.Fault_plan.total_injected plan > 0);
  rc

let record_vhttp () =
  let compiled = Vhttp.Fileserver.compile_ring ~snapshot:false in
  let vi = Option.get (Vcc.Compile.find_virtine compiled "handle") in
  let img = vi.Vcc.Compile.image and policy = vi.Vcc.Compile.policy in
  let w = Wasp.Runtime.create () in
  let server = vhttp_env w in
  let rc = ok (Wasp.Runtime.record w img policy ~fuel:50_000_000) in
  ignore (Wasp.Runtime.run w img ~policy ~conn:server ());
  rc

(* A run that an injected provision_fail ends at VM creation: recorded
   (and replayed) as faulted at 0 cycles with return value 0. *)
let record_injected () =
  let img = fib_image () in
  let w = Wasp.Runtime.create () in
  let plan =
    Cycles.Fault_plan.create
      [ (Kvmsim.Kvm.site_provision_fail, Cycles.Fault_plan.Every { start = 0; interval = 0 }) ]
  in
  Wasp.Runtime.set_fault_plan w (Some plan);
  let rc =
    ok
      (Wasp.Runtime.record w ~fault_plan:(Cycles.Fault_plan.to_string plan) img
         Wasp.Policy.deny_all ~fuel:1_000_000)
  in
  (match Wasp.Runtime.run w img ~fuel:1_000_000 () with
  | exception Kvmsim.Kvm.Injected_failure _ -> ()
  | _ -> Alcotest.fail "expected an injected provisioning failure");
  Alcotest.(check (list string)) "trailer" [ "faulted"; "0"; "0" ]
    [
      Profiler.Replay.outcome rc;
      Int64.to_string (Profiler.Replay.total_cycles rc);
      recorded_ret rc;
    ];
  rc

let fixtures =
  Sys.readdir "fixtures" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".vxr")
  |> List.sort compare
  |> List.map (Filename.concat "fixtures")

let read path = In_channel.with_open_bin path In_channel.input_all

let test_replay_one_path () =
  Alcotest.(check int) "six committed fixtures" 6 (List.length fixtures);
  let vhttp = record_vhttp () in
  Alcotest.(check bool) "the vhttp recording holds the ring traffic" true
    (Profiler.Replay.event_count vhttp > 1);
  let attach w (img : Wasp.Image.t) =
    if String.starts_with ~prefix:"fileserver" img.name then Some (vhttp_env w) else None
  in
  List.iter
    (fun (what, text) ->
      let fresh, verdict = ok (Wasp.Runtime.replay ~attach text) in
      Alcotest.(check (list string)) (what ^ " replays with an empty verdict") [] verdict;
      Alcotest.(check string) (what ^ " re-serializes byte for byte") text
        (Profiler.Replay.to_string fresh))
    (List.map (fun p -> (p, read p)) fixtures
    @ [
        ("plain", Profiler.Replay.to_string (record_invocation ()));
        ("chaos", Profiler.Replay.to_string (record_chaos ()));
        ("vhttp", Profiler.Replay.to_string vhttp);
        ("injected", Profiler.Replay.to_string (record_injected ()));
      ])

let test_replay_stamp_divergence () =
  let text = read "fixtures/fuzz-ring-9859b02a33a1.vxr" in
  let e = List.nth (Profiler.Replay.events (ok (Profiler.Replay.of_string text))) 1 in
  (* the second hc line's stamp, +1 *)
  let seen = ref 0 in
  let bumped =
    replace_line ~prefix:"hc " text ~by:(fun l ->
        incr seen;
        if !seen <> 2 then l
        else
          let rest = String.index_from l 3 ' ' in
          Printf.sprintf "hc %Ld" (Int64.succ e.at) ^ String.sub l rest (String.length l - rest))
  in
  let _, verdict = ok (Wasp.Runtime.replay bumped) in
  Alcotest.(check (list string)) "reported at that event"
    [ Printf.sprintf "hc[1] (%d): cycle stamp %Ld vs %Ld" e.nr (Int64.succ e.at) e.at ]
    verdict

let test_record_custom_policy () =
  let w = Wasp.Runtime.create () in
  match
    Wasp.Runtime.record w (fib_image ()) (Wasp.Policy.Custom (fun _ -> true)) ~fuel:1_000
  with
  | Error m ->
      Alcotest.(check bool) "names the policy" true (count_substring m "Custom" > 0)
  | Ok _ -> Alcotest.fail "a Custom policy was recorded"

(* A chaos recording whose seed line is respelled [0xACE]: the same
   number, so nothing diverges, but it is not the text a replay writes.
   Both entry points, [wasprun --replay] (which is [Runtime.replay]) and
   the fixture check behind [fuzz_cli --check-fixtures], reject it. *)
let test_replay_respelled_seed () =
  let text = Profiler.Replay.to_string (record_chaos ()) in
  Alcotest.(check bool) "recorded under seed 2766" true (count_substring text "\nseed 2766\n" = 1);
  let respelled = replace_line ~prefix:"seed " text ~by:(fun _ -> "seed 0xACE") in
  let _, verdict = ok (Wasp.Runtime.replay respelled) in
  Alcotest.(check (list string)) "Runtime.replay names the line"
    [ {|recording text differs byte-for-byte at line 7: "seed 0xACE" vs "seed 2766"|} ]
    verdict;
  let dir = Filename.temp_dir "vxr" "" in
  let check_dir contents =
    let path = Filename.concat dir "chaos.vxr" in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
    let r = Fuzz.Driver.check_fixtures ~dir ~log:ignore in
    Sys.remove path;
    r
  in
  Alcotest.(check bool) "the fixture check passes the recording as written" true
    (check_dir text = Ok 1);
  (match check_dir respelled with
  | Error [ e ] ->
      Alcotest.(check bool) "the fixture check rejects the respelled one" true
        (count_substring e "byte-for-byte" > 0)
  | _ -> Alcotest.fail "the fixture check accepted the respelled recording");
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Symtab                                                              *)
(* ------------------------------------------------------------------ *)

let test_symtab_lookup () =
  let t =
    Profiler.Symtab.of_symbols
      [ ("start", 0x8000); (".L1", 0x8005); ("fib", 0x8010); ("g_x", 0x9000) ]
  in
  Alcotest.(check string) "exact hit" "start" (Profiler.Symtab.name_at t 0x8000);
  Alcotest.(check string) "interior address" "start" (Profiler.Symtab.name_at t 0x8008);
  Alcotest.(check string) "next symbol" "fib" (Profiler.Symtab.name_at t 0x8010);
  Alcotest.(check string) "below first symbol renders the address" "0x7fff"
    (Profiler.Symtab.name_at t 0x7fff);
  (* compiler-local labels are filtered by default *)
  Alcotest.(check string) "locals filtered" "start" (Profiler.Symtab.name_at t 0x8006)

let () =
  Alcotest.run "profiler"
    [
      ( "profile",
        [
          Alcotest.test_case "cycle conservation (asm)" `Quick test_conservation;
          Alcotest.test_case "cycle conservation (vcc)" `Quick test_conservation_vcc;
          Alcotest.test_case "symbolization + folded stacks" `Quick
            test_symbolization_and_folded;
          Alcotest.test_case "sampled mode" `Quick test_sampled_mode;
          Alcotest.test_case "metrics export" `Quick test_profile_export;
        ] );
      ( "flight",
        [
          Alcotest.test_case "fault dump" `Quick test_flight_fault_dump;
          Alcotest.test_case "policy violation dump" `Quick test_flight_policy_violation;
          Alcotest.test_case "ring bounds" `Quick test_flight_ring_bounds;
          Alcotest.test_case "wraparound keeps stamps" `Quick
            test_flight_wraparound_keeps_stamps;
        ] );
      ( "replay",
        [
          Alcotest.test_case "zero divergence" `Quick test_replay_zero_divergence;
          Alcotest.test_case "divergence detected" `Quick test_replay_divergence_detected;
          Alcotest.test_case "vxr round trip" `Quick test_vxr_round_trip;
          Alcotest.test_case "tamper detected" `Quick test_vxr_tamper_detected;
          Alcotest.test_case "pre-refactor fixture replays clean" `Quick
            test_replay_pre_refactor_fixture;
          Alcotest.test_case "image_matches over paged view" `Quick test_image_matches;
          Alcotest.test_case "md5 line required" `Quick test_vxr_md5_line_required;
          Alcotest.test_case "header and trailer lines required" `Quick
            test_vxr_header_lines_required;
          Alcotest.test_case "no line overrides another" `Quick test_vxr_no_line_overrides;
          Alcotest.test_case "one replay path" `Quick test_replay_one_path;
          Alcotest.test_case "stamp divergence located" `Quick test_replay_stamp_divergence;
          Alcotest.test_case "custom policy is a typed error" `Quick test_record_custom_policy;
          Alcotest.test_case "respelled seed rejected" `Quick test_replay_respelled_seed;
        ] );
      ("symtab", [ Alcotest.test_case "lookup" `Quick test_symtab_lookup ]);
    ]
