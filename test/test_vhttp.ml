(* Tests for the HTTP substrate: wire parsing, the echo-server study, and
   the static-file server (virtine and native paths). *)

module H = Vhttp.Http

(* ------------------------------------------------------------------ *)
(* Wire format                                                          *)
(* ------------------------------------------------------------------ *)

let test_parse_request_basic () =
  let raw = "GET /index.html HTTP/1.0\r\nHost: localhost\r\nAccept: */*\r\n\r\n" in
  match H.parse_request raw with
  | Ok r ->
      Alcotest.(check string) "method" "GET" r.H.meth;
      Alcotest.(check string) "path" "/index.html" r.H.path;
      Alcotest.(check string) "version" "HTTP/1.0" r.H.version;
      Alcotest.(check int) "headers" 2 (List.length r.H.headers)
  | Error e -> Alcotest.fail e

let test_parse_request_with_body () =
  let raw = "POST /submit HTTP/1.0\r\nContent-Length: 5\r\n\r\nhelloEXTRA" in
  match H.parse_request raw with
  | Ok r -> Alcotest.(check string) "body clipped to content-length" "hello" r.H.body
  | Error e -> Alcotest.fail e

let test_parse_request_malformed () =
  List.iter
    (fun raw ->
      match H.parse_request raw with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" raw)
    [ ""; "GARBAGE\r\n\r\n"; "GET /x HTTP/1.0\r\nBadHeader\r\n\r\n"; " / HTTP/1.0\r\n\r\n" ]

let test_request_roundtrip () =
  let r = H.make_request ~headers:[ ("Host", "h") ] ~body:"xyz" "POST" "/p" in
  match H.parse_request (H.request_to_string r) with
  | Ok r' ->
      Alcotest.(check string) "path" r.H.path r'.H.path;
      Alcotest.(check string) "body" r.H.body r'.H.body
  | Error e -> Alcotest.fail e

let test_parse_response () =
  let raw = "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n" in
  match H.parse_response raw with
  | Ok r ->
      Alcotest.(check int) "status" 404 r.H.status;
      Alcotest.(check string) "reason" "Not Found" r.H.reason
  | Error e -> Alcotest.fail e

let test_response_roundtrip () =
  let r = H.make_response ~status:200 "payload" in
  match H.parse_response (H.response_to_string r) with
  | Ok r' ->
      Alcotest.(check int) "status" 200 r'.H.status;
      Alcotest.(check string) "body" "payload" r'.H.resp_body
  | Error e -> Alcotest.fail e

let test_reason_phrases () =
  let status_line status =
    List.hd (String.split_on_char '\r' (H.response_to_string (H.make_response ~status "")))
  in
  Alcotest.(check string) "200" "HTTP/1.0 200 OK" (status_line 200);
  Alcotest.(check string) "404" "HTTP/1.0 404 Not Found" (status_line 404)

(* ------------------------------------------------------------------ *)
(* Echo server (Figure 4)                                               *)
(* ------------------------------------------------------------------ *)

let test_echo_round_trip () =
  let w = Wasp.Runtime.create () in
  let compiled = Vhttp.Echo.compile () in
  let payload = "GET / HTTP/1.0\r\n\r\n" in
  let ms, result = Vhttp.Echo.run_once w compiled ~payload in
  (match result.Wasp.Runtime.outcome with
  | Wasp.Runtime.Exited _ -> ()
  | _ -> Alcotest.fail "echo did not exit cleanly");
  Alcotest.(check int64) "echoed byte count" (Int64.of_int (String.length payload))
    result.Wasp.Runtime.return_value;
  (* milestone ordering: entry < recv < send *)
  Alcotest.(check bool) "entry before recv" true (ms.Vhttp.Echo.entry < ms.Vhttp.Echo.recv_done);
  Alcotest.(check bool) "recv before send" true
    (ms.Vhttp.Echo.recv_done < ms.Vhttp.Echo.send_done)

let test_echo_sub_millisecond () =
  (* §4.2: "we can achieve sub-millisecond HTTP response latencies
     (<300 us) without optimizations" *)
  let w = Wasp.Runtime.create () in
  let compiled = Vhttp.Echo.compile () in
  let ms, _ = Vhttp.Echo.run_once w compiled ~payload:"ping" in
  let clock = Wasp.Runtime.clock w in
  let us = Cycles.Clock.to_us clock ms.Vhttp.Echo.send_done in
  Alcotest.(check bool) (Printf.sprintf "response in %.0f us < 300" us) true (us < 300.0)

let test_echo_entry_cost_protected () =
  (* Figure 4's left point: ~10K cycles to reach C code. Warm the shell
     pool first so the measurement starts from a provisioned context,
     as the paper's KVM_RUN-relative milestones do. *)
  let w = Wasp.Runtime.create () in
  let compiled = Vhttp.Echo.compile () in
  ignore (Vhttp.Echo.run_once w compiled ~payload:"warmup");
  let ms, _ = Vhttp.Echo.run_once w compiled ~payload:"x" in
  Alcotest.(check bool)
    (Printf.sprintf "entry %Ld cycles in [5K, 60K]" ms.Vhttp.Echo.entry)
    true
    (ms.Vhttp.Echo.entry > 5_000L && ms.Vhttp.Echo.entry < 60_000L)

(* ------------------------------------------------------------------ *)
(* File server (Figure 13)                                              *)
(* ------------------------------------------------------------------ *)

let setup_virtine ~snapshot =
  let w = Wasp.Runtime.create () in
  let path = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let compiled = Vhttp.Fileserver.compile ~snapshot in
  (w, compiled, path)

let test_fileserver_virtine_200 () =
  let w, compiled, path = setup_virtine ~snapshot:false in
  let served = Vhttp.Fileserver.serve_virtine w compiled ~path in
  Alcotest.(check int) "status" 200 served.Vhttp.Fileserver.status;
  Alcotest.(check int) "body bytes" 1024 (String.length served.Vhttp.Fileserver.body);
  (* the paper's seven interactions: read, stat, open, read, write,
     close, exit *)
  Alcotest.(check int) "seven hypercalls" 7 served.Vhttp.Fileserver.hypercalls

let test_fileserver_virtine_404 () =
  let w, compiled, _ = setup_virtine ~snapshot:false in
  let served = Vhttp.Fileserver.serve_virtine w compiled ~path:"/missing" in
  Alcotest.(check int) "status" 404 served.Vhttp.Fileserver.status

let test_fileserver_virtine_snapshot_still_correct () =
  let w, compiled, path = setup_virtine ~snapshot:true in
  let s1 = Vhttp.Fileserver.serve_virtine w compiled ~path in
  let s2 = Vhttp.Fileserver.serve_virtine w compiled ~path in
  Alcotest.(check int) "first 200" 200 s1.Vhttp.Fileserver.status;
  Alcotest.(check int) "second 200" 200 s2.Vhttp.Fileserver.status;
  Alcotest.(check string) "same body" s1.Vhttp.Fileserver.body s2.Vhttp.Fileserver.body;
  Alcotest.(check bool)
    (Printf.sprintf "snapshot run faster (%Ld < %Ld)" s2.Vhttp.Fileserver.cycles
       s1.Vhttp.Fileserver.cycles)
    true
    (s2.Vhttp.Fileserver.cycles < s1.Vhttp.Fileserver.cycles)

let test_fileserver_native_matches_virtine () =
  let w, compiled, path = setup_virtine ~snapshot:false in
  let virt = Vhttp.Fileserver.serve_virtine w compiled ~path in
  let env = Wasp.Runtime.env w in
  let clock = Cycles.Clock.create () in
  let rng = Cycles.Rng.create ~seed:5 in
  let nat = Vhttp.Fileserver.serve_native ~env ~clock ~rng ~path in
  Alcotest.(check int) "same status" virt.Vhttp.Fileserver.status nat.Vhttp.Fileserver.status;
  Alcotest.(check string) "same body" virt.Vhttp.Fileserver.body nat.Vhttp.Fileserver.body

let test_fileserver_native_faster () =
  let w, compiled, path = setup_virtine ~snapshot:false in
  let virt = Vhttp.Fileserver.serve_virtine w compiled ~path in
  let clock = Cycles.Clock.create () in
  let rng = Cycles.Rng.create ~seed:6 in
  let nat =
    Vhttp.Fileserver.serve_native ~env:(Wasp.Runtime.env w) ~clock ~rng ~path
  in
  Alcotest.(check bool)
    (Printf.sprintf "native %Ld < virtine %Ld" nat.Vhttp.Fileserver.cycles
       virt.Vhttp.Fileserver.cycles)
    true
    (nat.Vhttp.Fileserver.cycles < virt.Vhttp.Fileserver.cycles)

(* ------------------------------------------------------------------ *)
(* Ringed file server (batched hypercalls, two exits per request)       *)
(* ------------------------------------------------------------------ *)

let setup_ring ~snapshot =
  let w = Wasp.Runtime.create () in
  let path = Vhttp.Fileserver.add_default_files (Wasp.Runtime.env w) in
  let compiled = Vhttp.Fileserver.compile_ring ~snapshot in
  (w, compiled, path)

let test_fileserver_ring_200 () =
  let w, compiled, path = setup_ring ~snapshot:false in
  let served = Vhttp.Fileserver.serve_virtine w compiled ~path in
  Alcotest.(check int) "status" 200 served.Vhttp.Fileserver.status;
  Alcotest.(check int) "body bytes" 1024 (String.length served.Vhttp.Fileserver.body);
  Alcotest.(check bool)
    (Printf.sprintf "exits %d <= 2" served.Vhttp.Fileserver.exits)
    true
    (served.Vhttp.Fileserver.exits <= 2)

let test_fileserver_ring_matches_classic () =
  let w, compiled, path = setup_virtine ~snapshot:false in
  let classic = Vhttp.Fileserver.serve_virtine w compiled ~path in
  let w2, ringed_c, _ = setup_ring ~snapshot:false in
  let ringed = Vhttp.Fileserver.serve_virtine w2 ringed_c ~path in
  Alcotest.(check int) "same status" classic.Vhttp.Fileserver.status
    ringed.Vhttp.Fileserver.status;
  Alcotest.(check string) "same body" classic.Vhttp.Fileserver.body
    ringed.Vhttp.Fileserver.body;
  Alcotest.(check bool)
    (Printf.sprintf "ringed %d exits < classic %d" ringed.Vhttp.Fileserver.exits
       classic.Vhttp.Fileserver.exits)
    true
    (ringed.Vhttp.Fileserver.exits < classic.Vhttp.Fileserver.exits)

let test_fileserver_ring_404 () =
  let w, compiled, _ = setup_ring ~snapshot:false in
  let served = Vhttp.Fileserver.serve_virtine w compiled ~path:"/missing" in
  Alcotest.(check int) "status" 404 served.Vhttp.Fileserver.status

let test_fileserver_ring_faster () =
  let w, compiled, path = setup_virtine ~snapshot:false in
  ignore (Vhttp.Fileserver.serve_virtine w compiled ~path);
  let classic = Vhttp.Fileserver.serve_virtine w compiled ~path in
  let w2, ringed_c, _ = setup_ring ~snapshot:false in
  ignore (Vhttp.Fileserver.serve_virtine w2 ringed_c ~path);
  let ringed = Vhttp.Fileserver.serve_virtine w2 ringed_c ~path in
  Alcotest.(check bool)
    (Printf.sprintf "ringed %Ld < classic %Ld cycles" ringed.Vhttp.Fileserver.cycles
       classic.Vhttp.Fileserver.cycles)
    true
    (ringed.Vhttp.Fileserver.cycles < classic.Vhttp.Fileserver.cycles)

let test_fileserver_bad_request () =
  let w, compiled, _ = setup_virtine ~snapshot:false in
  let vi =
    match Vcc.Compile.find_virtine compiled "handle" with
    | Some vi -> vi
    | None -> Alcotest.fail "no handler"
  in
  let client_end, server_end = Wasp.Hostenv.socket_pair (Wasp.Runtime.env w) in
  ignore (Wasp.Hostenv.send client_end (Bytes.of_string "BOGUS REQUEST\r\n\r\n"));
  let result =
    Wasp.Runtime.run w vi.Vcc.Compile.image ~policy:vi.Vcc.Compile.policy
      ~conn:server_end ()
  in
  Alcotest.(check int64) "handler rejects" 400L result.Wasp.Runtime.return_value;
  let resp = Bytes.to_string (Wasp.Hostenv.recv client_end ~max:4096) in
  match H.parse_response resp with
  | Ok r -> Alcotest.(check int) "400 response" 400 r.H.status
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "vhttp"
    [
      ( "wire",
        [
          Alcotest.test_case "parse request" `Quick test_parse_request_basic;
          Alcotest.test_case "request body" `Quick test_parse_request_with_body;
          Alcotest.test_case "malformed requests" `Quick test_parse_request_malformed;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "parse response" `Quick test_parse_response;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "reason phrases" `Quick test_reason_phrases;
        ] );
      ( "echo",
        [
          Alcotest.test_case "round trip + milestones" `Quick test_echo_round_trip;
          Alcotest.test_case "sub-millisecond" `Quick test_echo_sub_millisecond;
          Alcotest.test_case "entry cost" `Quick test_echo_entry_cost_protected;
        ] );
      ( "fileserver",
        [
          Alcotest.test_case "virtine 200" `Quick test_fileserver_virtine_200;
          Alcotest.test_case "virtine 404" `Quick test_fileserver_virtine_404;
          Alcotest.test_case "snapshot correct+faster" `Quick
            test_fileserver_virtine_snapshot_still_correct;
          Alcotest.test_case "native matches" `Quick test_fileserver_native_matches_virtine;
          Alcotest.test_case "native faster" `Quick test_fileserver_native_faster;
          Alcotest.test_case "bad request" `Quick test_fileserver_bad_request;
        ] );
      ( "fileserver-ring",
        [
          Alcotest.test_case "ring 200 + two exits" `Quick test_fileserver_ring_200;
          Alcotest.test_case "ring matches classic" `Quick
            test_fileserver_ring_matches_classic;
          Alcotest.test_case "ring 404 slow path" `Quick test_fileserver_ring_404;
          Alcotest.test_case "ring faster" `Quick test_fileserver_ring_faster;
        ] );
    ]
