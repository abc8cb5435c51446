(* Tests for the tooling and API extensions: the disassembler, execution
   tracing, async virtine futures, and the Vespid HTTP gateway. *)

module R = Wasp.Runtime

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Disassembler                                                         *)
(* ------------------------------------------------------------------ *)

let test_disasm_roundtrip_text () =
  let src = "start:\n  mov r0, 20\n  call fn\n  hlt\nfn:\n  add r0, 1\n  ret" in
  let p = Asm.assemble_string src in
  let text = Disasm.of_program p in
  Alcotest.(check bool) "has start label" true (contains text "start:");
  Alcotest.(check bool) "has fn label" true (contains text "fn:");
  Alcotest.(check bool) "resolves call target" true (contains text "; -> fn");
  Alcotest.(check bool) "mnemonics present" true (contains text "mov r0, 20")

let test_disasm_instructions_roundtrip () =
  let instrs =
    [ Instr.Mov (0, Instr.Imm 42L); Instr.Bin (Instr.Add, 1, Instr.Reg 0); Instr.Hlt ]
  in
  let blob = Encoding.encode_program instrs in
  let lines = Disasm.disassemble ~origin:0 blob in
  let decoded = List.filter_map (fun l -> l.Disasm.instr) lines in
  Alcotest.(check int) "all decoded" 3 (List.length decoded);
  Alcotest.(check bool) "equal" true (List.for_all2 Instr.equal instrs decoded)

let test_disasm_handles_garbage () =
  let blob = Bytes.of_string "\xFF\xEE\x00" in
  let lines = Disasm.disassemble ~origin:0 blob in
  (* two data bytes + one hlt *)
  let data = List.filter (fun l -> l.Disasm.instr = None) lines in
  Alcotest.(check int) "two data bytes" 2 (List.length data);
  Alcotest.(check bool) "hlt recovered" true
    (List.exists (fun l -> l.Disasm.instr = Some Instr.Hlt) lines)

let test_disasm_addresses_consecutive () =
  let blob = Encoding.encode_program [ Instr.Nop; Instr.Mov (0, Instr.Imm 1L); Instr.Ret ] in
  let lines = Disasm.disassemble ~origin:0x8000 blob in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check int) "consecutive" (a.Disasm.addr + a.Disasm.size) b.Disasm.addr;
        check rest
    | _ -> ()
  in
  check lines

(* ------------------------------------------------------------------ *)
(* Tracing                                                              *)
(* ------------------------------------------------------------------ *)

let fib_image =
  Wasp.Image.of_asm_string ~name:"t-exit" "mov r0, 0\nmov r1, 7\nout 1, r0\nhlt"

(* An invocation's lifecycle is visible as hub spans: one attach point
   (Runtime.set_telemetry) feeds every layer. *)
let traced () =
  let w = R.create () in
  let hub = Telemetry.Hub.create ~clock:(R.clock w) () in
  R.set_telemetry w (Some hub);
  (w, hub)

let spans hub = Telemetry.Span.spans (Telemetry.Hub.spans hub)

let hypercall_spans hub =
  List.filter_map
    (fun (s : Telemetry.Span.span) ->
      if s.name = "hypercall" then
        Some (List.assoc "nr" s.args, List.assoc "allowed" s.args = "true")
      else None)
    (spans hub)

let test_trace_records_lifecycle () =
  let w, hub = traced () in
  ignore (R.run w fib_image ());
  let names = List.map (fun (s : Telemetry.Span.span) -> s.name) (spans hub) in
  List.iter
    (fun phase -> Alcotest.(check bool) (phase ^ " span") true (List.mem phase names))
    [ "provision"; "image_load"; "boot"; "hypercall" ];
  Alcotest.(check bool) "exit hypercall allowed" true
    (List.mem (Wasp.Hc.name Wasp.Hc.exit_, true) (hypercall_spans hub))

let test_trace_denied_hypercall_visible () =
  let w, hub = traced () in
  let img =
    Wasp.Image.of_asm_string ~name:"t-open"
      "mov r0, 3\nmov r1, 0\nout 1, r0\nmov r0, 0\nmov r1, 0\nout 1, r0"
  in
  ignore (R.run w img ());
  Alcotest.(check bool) "open denied in trace" true
    (List.mem (Wasp.Hc.name Wasp.Hc.open_, false) (hypercall_spans hub))

let test_trace_detach () =
  let w, hub = traced () in
  ignore (R.run w fib_image ());
  let n = Telemetry.Span.count (Telemetry.Hub.spans hub) in
  R.set_telemetry w None;
  ignore (R.run w fib_image ());
  Alcotest.(check int) "no new spans after detach" n
    (Telemetry.Span.count (Telemetry.Hub.spans hub))

(* ------------------------------------------------------------------ *)
(* Futures (async virtines)                                             *)
(* ------------------------------------------------------------------ *)

let double_image =
  Wasp.Image.of_asm_string ~name:"double"
    "mov r1, 0\nld64 r1, [r1]\nadd r1, r1\nmov r0, 0\nout 1, r0\nhlt"

let test_future_deferred () =
  let w = R.create () in
  let before = Cycles.Clock.now (R.clock w) in
  let f = Wasp.Future.spawn w double_image ~args:[ 5L ] () in
  Alcotest.(check bool) "not run at spawn" true (Cycles.Clock.now (R.clock w) = before);
  Alcotest.(check bool) "pending" false (Wasp.Future.is_done f);
  Alcotest.(check bool) "poll empty" true (Wasp.Future.poll f = None);
  let r = Wasp.Future.join f in
  Alcotest.(check int64) "result" 10L r.R.return_value;
  Alcotest.(check bool) "done" true (Wasp.Future.is_done f)

let test_future_join_idempotent () =
  let w = R.create () in
  let f = Wasp.Future.spawn w double_image ~args:[ 3L ] () in
  let r1 = Wasp.Future.join f in
  let clock_after = Cycles.Clock.now (R.clock w) in
  let r2 = Wasp.Future.join f in
  Alcotest.(check int64) "same result" r1.R.return_value r2.R.return_value;
  Alcotest.(check bool) "no re-execution" true (Cycles.Clock.now (R.clock w) = clock_after);
  match Wasp.Future.poll f with
  | Some r -> Alcotest.(check int64) "poll sees it" 6L r.R.return_value
  | None -> Alcotest.fail "poll after join"

let test_future_join_all () =
  let w = R.create () in
  let fs =
    List.map (fun n -> Wasp.Future.spawn w double_image ~args:[ Int64.of_int n ] ()) [ 1; 2; 3; 4 ]
  in
  let rs = Wasp.Future.join_all fs in
  Alcotest.(check (list int64)) "all results" [ 2L; 4L; 6L; 8L ]
    (List.map (fun r -> r.R.return_value) rs)

(* ------------------------------------------------------------------ *)
(* Gateway                                                              *)
(* ------------------------------------------------------------------ *)

let gateway () =
  let w = R.create ~clean:`Async () in
  let platform = Serverless.Vespid.create w in
  Serverless.Gateway.create platform

let post path body =
  Vhttp.Http.request_to_string (Vhttp.Http.make_request ~body "POST" path)

let get path = Vhttp.Http.request_to_string (Vhttp.Http.make_request "GET" path)

let status_of raw =
  match Vhttp.Http.parse_response raw with
  | Ok r -> r.Vhttp.Http.status
  | Error e -> Alcotest.failf "bad response: %s" e

let body_of raw =
  match Vhttp.Http.parse_response raw with
  | Ok r -> r.Vhttp.Http.resp_body
  | Error e -> Alcotest.failf "bad response: %s" e

let shout_src = "function shout(d) { var s = \"\"; for (var i = 0; i < d.length; i++) { s += String.fromCharCode(d[i]); } return s.toUpperCase(); }"

let test_gateway_register_and_invoke () =
  let g = gateway () in
  let r = Serverless.Gateway.handle g (post "/register/shout?entry=shout" shout_src) in
  Alcotest.(check int) "registered" 201 (status_of r);
  let r = Serverless.Gateway.handle g (post "/invoke/shout" "hello gateway") in
  Alcotest.(check int) "invoked" 200 (status_of r);
  Alcotest.(check string) "result" "HELLO GATEWAY" (body_of r)

let test_gateway_unknown_function () =
  let g = gateway () in
  let r = Serverless.Gateway.handle g (post "/invoke/ghost" "x") in
  Alcotest.(check int) "404" 404 (status_of r)

let test_gateway_list_functions () =
  let g = gateway () in
  ignore (Serverless.Gateway.handle g (post "/register/a?entry=shout" shout_src));
  ignore (Serverless.Gateway.handle g (post "/register/b?entry=shout" shout_src));
  let r = Serverless.Gateway.handle g (get "/functions") in
  Alcotest.(check int) "200" 200 (status_of r);
  Alcotest.(check bool) "lists both" true
    (contains (body_of r) "a" && contains (body_of r) "b")

let test_gateway_js_error_is_500 () =
  let g = gateway () in
  ignore
    (Serverless.Gateway.handle g
       (post "/register/bad?entry=boom" "function boom(d) { return nothing_here(); }"));
  let r = Serverless.Gateway.handle g (post "/invoke/bad" "x") in
  Alcotest.(check int) "500" 500 (status_of r)

let test_gateway_register_target_parsing () =
  Alcotest.(check (pair string string))
    "entry given" ("f", "go")
    (Serverless.Gateway.parse_register_target "f?entry=go");
  Alcotest.(check (pair string string))
    "entry defaults" ("f", "main")
    (Serverless.Gateway.parse_register_target "f");
  (* regression: pairs split on the first '=' only, so a value may
     itself contain '=' *)
  Alcotest.(check (pair string string))
    "equals in value" ("f", "ns=main")
    (Serverless.Gateway.parse_register_target "f?entry=ns=main")

let test_gateway_bad_requests () =
  let g = gateway () in
  Alcotest.(check int) "malformed" 400
    (status_of (Serverless.Gateway.handle g "NOT HTTP AT ALL"));
  Alcotest.(check int) "no source" 400
    (status_of (Serverless.Gateway.handle g (post "/register/x" "")));
  Alcotest.(check int) "bad route" 404
    (status_of (Serverless.Gateway.handle g (get "/nope")));
  Alcotest.(check int) "bad method" 405
    (status_of
       (Serverless.Gateway.handle g
          (Vhttp.Http.request_to_string (Vhttp.Http.make_request "DELETE" "/functions"))))

let () =
  Alcotest.run "extensions"
    [
      ( "disasm",
        [
          Alcotest.test_case "roundtrip text" `Quick test_disasm_roundtrip_text;
          Alcotest.test_case "instruction roundtrip" `Quick test_disasm_instructions_roundtrip;
          Alcotest.test_case "garbage bytes" `Quick test_disasm_handles_garbage;
          Alcotest.test_case "consecutive addresses" `Quick test_disasm_addresses_consecutive;
        ] );
      ( "trace",
        [
          Alcotest.test_case "lifecycle events" `Quick test_trace_records_lifecycle;
          Alcotest.test_case "denied hypercalls" `Quick test_trace_denied_hypercall_visible;
          Alcotest.test_case "detach" `Quick test_trace_detach;
        ] );
      ( "future",
        [
          Alcotest.test_case "deferred" `Quick test_future_deferred;
          Alcotest.test_case "join idempotent" `Quick test_future_join_idempotent;
          Alcotest.test_case "join_all" `Quick test_future_join_all;
        ] );
      ( "gateway",
        [
          Alcotest.test_case "register + invoke" `Quick test_gateway_register_and_invoke;
          Alcotest.test_case "unknown function" `Quick test_gateway_unknown_function;
          Alcotest.test_case "list functions" `Quick test_gateway_list_functions;
          Alcotest.test_case "js error 500" `Quick test_gateway_js_error_is_500;
          Alcotest.test_case "register target parsing" `Quick
            test_gateway_register_target_parsing;
          Alcotest.test_case "bad requests" `Quick test_gateway_bad_requests;
        ] );
    ]
