(* The artifact-evaluation suite: the paper's major claims C1-C8
   (Artifact Appendix A.4.1), each asserted over the tables the bench
   prints, as committed in bench/baselines/BENCH_<fig>.json. It runs no
   workload: the bench gate (`make bench-gate`) requires the code to
   print those tables cell for cell, so a code change that breaks a
   claim fails the gate, and the regenerated baseline then fails here. *)

let baselines = "../bench/baselines"

(* [fig]'s table titled [title], or its untitled one *)
let table ?title fig =
  match Bench_json.read (Filename.concat baselines (Bench_json.file fig)) with
  | Error e -> Alcotest.fail e
  | Ok tables -> (
      match List.find_opt (fun (t : Bench_json.table) -> t.title = title) tables with
      | Some t -> t
      | None -> Alcotest.failf "%s: no table %s" fig (Option.value title ~default:"untitled"))

let labels (t : Bench_json.table) = List.map List.hd t.rows

(* The cell in the row labelled [row] and the column headed [col], read
   as the number it starts with: "16.21x" is 16.21, "-13%" is -13. *)
let cell (t : Bench_json.table) ~row ~col =
  let text =
    match
      ( List.find_index (String.equal col) t.header,
        List.find_opt (fun r -> List.hd r = row) t.rows )
    with
    | Some ci, Some r -> List.nth r ci
    | None, _ -> Alcotest.failf "no column %S" col
    | _, None -> Alcotest.failf "no row %S" row
  in
  let numeric c = (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' in
  let rec stop i = if i < String.length text && numeric text.[i] then stop (i + 1) else i in
  match float_of_string_opt (String.sub text 0 (stop 0)) with
  | Some v -> v
  | None -> Alcotest.failf "row %S column %S: %S is not a number" row col text

let check msg ok = Alcotest.(check bool) msg true ok

(* C1: the core components of virtual context creation comprise only a
   few tens of thousands of cycles, and the paging identity map
   dominates them (Table 1). *)
let test_c1_boot_cost () =
  let t = table "table1" in
  let mean row = cell t ~row ~col:"mean" in
  let total = List.fold_left (fun acc row -> acc +. mean row) 0.0 (labels t) in
  check
    (Printf.sprintf "long boot %.0f cycles in tens of thousands" total)
    (total > 10_000.0 && total < 100_000.0);
  let paging = "paging ident. map" in
  List.iter
    (fun other ->
      if other <> paging then
        check (Printf.sprintf "paging > %s" other) (mean paging > mean other))
    (labels t)

(* C2: function latency varies with processor mode; cheaper modes are an
   optimization opportunity (Figure 3). *)
let test_c2_mode_latency () =
  let t = table "fig3" in
  let cost row = cell t ~row ~col:"mean (cycles)" in
  let real = cost "real (16-bit)" and long = cost "long (64-bit)" in
  check (Printf.sprintf "real %.0f < long %.0f by ~10K+" real long) (long -. real > 10_000.0)

(* C3: a minimal-environment server answers in <1 ms (Figure 4). *)
let test_c3_echo_sub_ms () =
  let us = cell (table "fig4") ~row:"send() complete" ~col:"mean (us)" in
  check (Printf.sprintf "%.1f us < 1000" us) (us < 1000.0)

(* C4: Wasp's creation latencies approach the vmrun hardware limit
   (Figure 8). *)
let test_c4_wasp_near_hardware_limit () =
  let t = table ~title:"AMD (tinker)" "fig8" in
  let mean row = cell t ~row ~col:"mean (cycles)" in
  let wasp_ca = mean "Wasp+CA" and vmrun = mean "vmrun" in
  check
    (Printf.sprintf "Wasp+CA %.0f within 25%% of vmrun %.0f" wasp_ca vmrun)
    (wasp_ca < 1.25 *. vmrun);
  let pthread = mean "Linux pthread" in
  check (Printf.sprintf "Wasp+CA %.0f beats pthread %.0f" wasp_ca pthread) (wasp_ca < pthread)

(* C5: creation overheads amortize with ~100 us of work; snapshotting
   pushes the amortization point down (Figure 11). *)
let test_c5_amortization () =
  let t = table "fig11" in
  let slowdown n = cell t ~row:n ~col:"snapshot slowdown" in
  let small = slowdown "5" and large = slowdown "15" in
  check
    (Printf.sprintf "slowdown falls: fib(5) %.2fx -> fib(15) %.2fx" small large)
    (small > 2.0 && large < 1.3)

(* C6: start-up becomes memory-bandwidth bound at ~2 MB image size
   (Figure 12). *)
let test_c6_memory_bound () =
  let t = table "fig12" in
  let startup row = cell t ~row ~col:"start-up (cycles)" in
  (* bandwidth-bound: 4x the bytes ~= 4x the cycles (within 25%) *)
  let ratio = startup "8 MB" /. startup "2 MB" in
  check (Printf.sprintf "scaling ratio %.2f ~ 4" ratio) (ratio > 3.0 && ratio < 5.0);
  (* implied bandwidth in the 6-8 GB/s range at 8 MB *)
  let gbps = cell t ~row:"8 MB" ~col:"implied copy GB/s" in
  check (Printf.sprintf "%.1f GB/s near memcpy" gbps) (gbps > 5.0 && gbps < 8.5)

(* C7: the virtine HTTP server loses <20% throughput vs native
   (Figure 13). *)
let test_c7_http_throughput () =
  let t = table "fig13" in
  let tput row = cell t ~row ~col:"throughput (req/s)" in
  let drop = 1.0 -. (tput "virtine+snapshot" /. tput "native") in
  check (Printf.sprintf "throughput drop %.0f%% < 20%%" (drop *. 100.0)) (drop < 0.20)

(* C8: JS virtines cost <2x native; snapshotting helps when setup is
   non-trivial (Figure 14). *)
let test_c8_js_slowdown () =
  let t = table "fig14" in
  let slowdown row = cell t ~row ~col:"slowdown" in
  let plain = slowdown "Virtine" and snap_nt = slowdown "Virtine+Snapshot+NT" in
  check (Printf.sprintf "plain virtine %.2fx < 2x" plain) (plain < 2.0);
  check (Printf.sprintf "snapshot+NT %.2fx < plain %.2fx" snap_nt plain) (snap_nt < plain)

let () =
  Alcotest.run "claims"
    [
      ( "artifact-appendix",
        [
          Alcotest.test_case "C1: boot cost tens of thousands" `Quick test_c1_boot_cost;
          Alcotest.test_case "C2: processor-mode savings" `Quick test_c2_mode_latency;
          Alcotest.test_case "C3: echo server < 1ms" `Quick test_c3_echo_sub_ms;
          Alcotest.test_case "C4: Wasp near hardware limit" `Quick test_c4_wasp_near_hardware_limit;
          Alcotest.test_case "C5: amortization" `Quick test_c5_amortization;
          Alcotest.test_case "C6: memory-bandwidth bound" `Quick test_c6_memory_bound;
          Alcotest.test_case "C7: HTTP throughput < 20% drop" `Quick test_c7_http_throughput;
          Alcotest.test_case "C8: JS slowdown < 2x" `Quick test_c8_js_slowdown;
        ] );
    ]
