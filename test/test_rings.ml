(* Tests for the batched hypercall ring: the ABI guard rails (out-of-range
   numbers), adversarial ring states (wild buffer descriptors, racing
   cursors, vec/link misuse), partial drains under fuel pressure, CoW
   interaction, and the ring_corrupt chaos site. See docs/hypercalls.md. *)

module R = Wasp.Runtime

let exited = function R.Exited _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Out-of-range hypercall numbers (regression: used to fall through)    *)
(* ------------------------------------------------------------------ *)

(* issue hypercall 99, then exit with its result *)
let out_of_range_image nr =
  Wasp.Image.of_asm_string ~name:"hc-oob"
    (Printf.sprintf {|
  mov r0, %d
  out 1, r0
  mov r1, r0
  mov r0, 0
  out 1, r0
  hlt
|} nr)

let test_out_of_range_einval () =
  List.iter
    (fun nr ->
      let w = R.create () in
      let r = R.run w (out_of_range_image nr) ~policy:Wasp.Policy.allow_all () in
      Alcotest.(check int64)
        (Printf.sprintf "hc %d rejected with EINVAL" nr)
        Wasp.Hc.err_inval r.R.return_value)
    [ Wasp.Hc.count; 99 ]

(* ------------------------------------------------------------------ *)
(* Basic ring batch via hand-built SQEs                                 *)
(* ------------------------------------------------------------------ *)

(* SQE 0: clock(); SQE 1: exit(7); tail = 2; doorbell. Guest memory
   starts zeroed, so untouched SQE fields (flags, links) are 0. *)
let ring_basic_image =
  Wasp.Image.of_asm_string ~name:"ring-basic"
    {|
  mov r1, 0x4840   ; SQE 0
  mov r0, 12       ; clock
  st64 [r1], r0
  mov r1, 0x4880   ; SQE 1
  mov r0, 0        ; exit
  st64 [r1], r0
  mov r0, 7
  st64 [r1+16], r0 ; exit code
  mov r1, 0x4808   ; sq_tail
  mov r0, 2
  st64 [r1], r0
  mov r0, 14       ; ring_enter doorbell
  out 1, r0
  hlt
|}

let clock_policy = Wasp.Policy.of_list [ Wasp.Hc.clock ]

let test_ring_basic_batch () =
  let w = R.create () in
  let seen = ref None in
  let r =
    R.run w ring_basic_image ~policy:clock_policy
      ~inspect:(fun mem _cpu ->
        seen := Some (Wasp.Ring.cqe_result mem ~index:0L, Wasp.Ring.sq_head mem))
      ()
  in
  Alcotest.(check int64) "exit code from ring op" 7L r.R.return_value;
  Alcotest.(check bool) "exited" true (exited r.R.outcome);
  (* doorbell + clock + exit *)
  Alcotest.(check int) "three hypercalls" 3 r.R.hypercalls;
  match !seen with
  | None -> Alcotest.fail "inspect did not run"
  | Some (clock_res, head) ->
      Alcotest.(check bool) "clock CQE has a timestamp" true (clock_res >= 0L);
      Alcotest.(check int64) "sq_head consumed both ops" 2L head

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The ring changes costs, never authority: a ring op denied by policy
   leaves the same black-box dump a per-exit denial does. *)
let test_denied_ring_op_dumps () =
  let w = R.create () in
  let r = R.run w ring_basic_image ~policy:Wasp.Policy.deny_all () in
  Alcotest.(check int) "clock denied" 1 r.R.denied;
  match R.flight_dump w with
  | None -> Alcotest.fail "a denied ring op left no black-box dump"
  | Some dump ->
      Alcotest.(check bool) "dump names the denied call" true
        (contains dump "hypercall clock denied")

(* ------------------------------------------------------------------ *)
(* Adversarial descriptors: each bad op fails alone, the batch goes on  *)
(* ------------------------------------------------------------------ *)

(* SQE 0: vectored write whose iov table lives far outside guest memory;
   SQE 1: FLAG_VEC on stat (only write/send may be vectored);
   SQE 2: FLAG_LINK with link word 0 (delta 0: self-link, invalid);
   SQE 3: exit(9) — still completes. *)
let ring_adversarial_image =
  Wasp.Image.of_asm_string ~name:"ring-bad-descriptors"
    {|
  mov r1, 0x4840
  mov r0, 2          ; write
  st64 [r1], r0
  mov r0, 4          ; FLAG_VEC
  st64 [r1+8], r0
  mov r0, 1
  st64 [r1+16], r0   ; fd
  mov r0, 0x700000
  st64 [r1+24], r0   ; iov table: out of bounds
  mov r0, 1
  st64 [r1+32], r0   ; iov_cnt
  mov r1, 0x4880
  mov r0, 5          ; stat
  st64 [r1], r0
  mov r0, 4          ; FLAG_VEC on stat: invalid
  st64 [r1+8], r0
  mov r1, 0x48c0
  mov r0, 12         ; clock
  st64 [r1], r0
  mov r0, 2          ; FLAG_LINK, link word 0 -> delta 0 -> invalid
  st64 [r1+8], r0
  mov r1, 0x4900
  mov r0, 0          ; exit
  st64 [r1], r0
  mov r0, 9
  st64 [r1+16], r0
  mov r1, 0x4808
  mov r0, 4          ; tail = 4
  st64 [r1], r0
  mov r0, 14
  out 1, r0
  hlt
|}

let test_ring_adversarial_descriptors () =
  let w = R.create () in
  let policy =
    Wasp.Policy.of_list [ Wasp.Hc.write; Wasp.Hc.stat; Wasp.Hc.clock ]
  in
  let cqes = ref [||] in
  let r =
    R.run w ring_adversarial_image ~policy
      ~inspect:(fun mem _cpu ->
        cqes :=
          Array.init 4 (fun i ->
              Wasp.Ring.cqe_result mem ~index:(Int64.of_int i)))
      ()
  in
  Alcotest.(check int64) "batch still reaches exit(9)" 9L r.R.return_value;
  match !cqes with
  | [| c0; c1; c2; _ |] ->
      Alcotest.(check int64) "wild iov table -> EFAULT on its op" Wasp.Hc.err_fault c0;
      Alcotest.(check int64) "vec on stat -> EINVAL" Wasp.Hc.err_inval c1;
      Alcotest.(check int64) "self-link -> EINVAL" Wasp.Hc.err_inval c2
  | _ -> Alcotest.fail "inspect did not capture CQEs"

(* ------------------------------------------------------------------ *)
(* Racing cursors: tail past head, tail behind head                     *)
(* ------------------------------------------------------------------ *)

let racing_tail_image tail_expr =
  Wasp.Image.of_asm_string ~name:"ring-racing-tail"
    (Printf.sprintf {|
%s
  mov r1, 0x4808
  st64 [r1], r0
  mov r0, 14
  out 1, r0
  hlt
|} tail_expr)

let check_ring_fault image =
  let w = R.create () in
  let r = R.run w image ~policy:clock_policy () in
  (match r.R.outcome with
  | R.Faulted (Vm.Cpu.Memory_oob { addr; _ }) ->
      Alcotest.(check int) "fault reported at the ring" Wasp.Layout.ring_base addr
  | _ -> Alcotest.fail "corrupt ring header must fault the virtine");
  Alcotest.(check bool) "black-box dump produced" true (R.flight_dump w <> None)

let test_ring_tail_past_head () =
  (* 40 pending > ring_entries: the producer raced past the ring *)
  check_ring_fault (racing_tail_image "  mov r0, 40")

let test_ring_tail_behind_head () =
  (* tail = -1 < head: negative pending *)
  check_ring_fault (racing_tail_image "  mov r0, 0\n  sub r0, 1")

(* ------------------------------------------------------------------ *)
(* Fuel exhaustion mid-drain: partial completion, deterministically     *)
(* ------------------------------------------------------------------ *)

(* fill all 32 slots with clock ops, ring the doorbell, halt; with
   enough fuel r0 = 32 completed ops *)
let ring_full_image =
  Wasp.Image.of_asm_string ~name:"ring-full"
    {|
start:
  mov r2, 0
  mov r1, 0x4840
fill:
  mov r0, 12
  st64 [r1], r0
  add r1, 64
  add r2, 1
  cmp r2, 32
  jlt fill
  mov r1, 0x4808
  mov r0, 32
  st64 [r1], r0
  mov r0, 14
  out 1, r0
  hlt
|}

let run_full ~fuel =
  let w = R.create () in
  let head = ref 0L in
  let r =
    R.run w ring_full_image ~policy:clock_policy ~fuel
      ~inspect:(fun mem _cpu -> head := Wasp.Ring.sq_head mem)
      ()
  in
  (r, !head)

let test_ring_full_drain () =
  let r, head = run_full ~fuel:50_000_000 in
  Alcotest.(check int64) "all 32 ops completed" 32L r.R.return_value;
  Alcotest.(check int64) "cursor at tail" 32L head

let partial_fuel = 398

let test_ring_fuel_partial_deterministic () =
  let r1, head1 = run_full ~fuel:partial_fuel in
  let r2, head2 = run_full ~fuel:partial_fuel in
  (* the drain stopped mid-batch with its completions persisted *)
  Alcotest.(check bool)
    (Printf.sprintf "partial completion (%Ld of 32)" r1.R.return_value)
    true
    (r1.R.return_value > 0L && r1.R.return_value < 32L);
  Alcotest.(check int64) "sq_head persisted at the cut" r1.R.return_value head1;
  (* byte-identical across runs at the same seed *)
  Alcotest.(check int64) "same completion count" r1.R.return_value r2.R.return_value;
  Alcotest.(check int64) "same cursor" head1 head2;
  Alcotest.(check int64) "same cycles" r1.R.cycles r2.R.cycles

(* ------------------------------------------------------------------ *)
(* Ring straddling a CoW page                                           *)
(* ------------------------------------------------------------------ *)

(* The ring deliberately straddles the 0x5000 page boundary (SQEs below,
   CQEs above). Under `Cow reset every invocation re-dirties both pages;
   the restore must scrub them or stale CQEs would leak between
   requests. *)
let test_ring_cow_straddle () =
  let w = R.create ~reset:`Cow () in
  let path = Vhttp.Fileserver.add_default_files (R.env w) in
  let compiled = Vhttp.Fileserver.compile_ring ~snapshot:true in
  let s1 = Vhttp.Fileserver.serve_virtine w compiled ~path in
  let s2 = Vhttp.Fileserver.serve_virtine w compiled ~path in
  let s3 = Vhttp.Fileserver.serve_virtine w compiled ~path in
  Alcotest.(check int) "first 200" 200 s1.Vhttp.Fileserver.status;
  Alcotest.(check int) "second 200 (CoW restore)" 200 s2.Vhttp.Fileserver.status;
  Alcotest.(check int) "third 200" 200 s3.Vhttp.Fileserver.status;
  Alcotest.(check string) "same body" s1.Vhttp.Fileserver.body s2.Vhttp.Fileserver.body;
  Alcotest.(check string) "same body again" s2.Vhttp.Fileserver.body
    s3.Vhttp.Fileserver.body

(* ------------------------------------------------------------------ *)
(* Chaos: the ring_corrupt injection site                               *)
(* ------------------------------------------------------------------ *)

let test_ring_corrupt_injected () =
  let w = R.create () in
  let plan =
    Cycles.Fault_plan.create
      [ (Kvmsim.Kvm.site_ring_corrupt, Cycles.Fault_plan.Every { start = 0; interval = 0 }) ]
  in
  R.set_fault_plan w (Some plan);
  (* first doorbell: injected corruption -> contained fault *)
  let r1 = R.run w ring_basic_image ~policy:clock_policy () in
  (match r1.R.outcome with
  | R.Faulted _ -> ()
  | _ -> Alcotest.fail "injected ring corruption must fault");
  Alcotest.(check int) "injected once" 1 (Cycles.Fault_plan.total_injected plan);
  (* second doorbell: the one-shot schedule is spent -> clean run *)
  let r2 = R.run w ring_basic_image ~policy:clock_policy () in
  Alcotest.(check int64) "retry succeeds" 7L r2.R.return_value

let test_ring_corrupt_supervised_availability () =
  let invocations = 100 in
  let w = R.create ~seed:0xC0AB () in
  let plan =
    Cycles.Fault_plan.create ~seed:0x51AB
      [ (Kvmsim.Kvm.site_ring_corrupt, Cycles.Fault_plan.Prob 0.25) ]
  in
  R.set_fault_plan w (Some plan);
  let sup =
    Wasp.Supervisor.create
      ~config:
        { Wasp.Supervisor.default_config with Wasp.Supervisor.quarantine_threshold = 10 }
      w
  in
  let ok = ref 0 in
  for _ = 1 to invocations do
    let o = Wasp.Supervisor.run sup ring_basic_image ~policy:clock_policy () in
    match o.Wasp.Supervisor.result with Ok _ -> incr ok | Error _ -> ()
  done;
  let avail = float_of_int !ok /. float_of_int invocations in
  Alcotest.(check bool)
    (Printf.sprintf "supervised availability %.2f >= 0.99" avail)
    true (avail >= 0.99);
  Alcotest.(check bool) "faults were actually injected" true
    (Cycles.Fault_plan.total_injected plan > 0);
  Alcotest.(check bool) "retries happened" true
    ((Wasp.Supervisor.stats sup).Wasp.Supervisor.retries > 0)

let () =
  Alcotest.run "rings"
    [
      ( "abi",
        [
          Alcotest.test_case "out-of-range hc -> EINVAL" `Quick test_out_of_range_einval;
          Alcotest.test_case "basic batch" `Quick test_ring_basic_batch;
          Alcotest.test_case "denied ring op dumps" `Quick test_denied_ring_op_dumps;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "bad descriptors fail alone" `Quick
            test_ring_adversarial_descriptors;
          Alcotest.test_case "tail past head" `Quick test_ring_tail_past_head;
          Alcotest.test_case "tail behind head" `Quick test_ring_tail_behind_head;
        ] );
      ( "fuel",
        [
          Alcotest.test_case "full drain" `Quick test_ring_full_drain;
          Alcotest.test_case "partial drain deterministic" `Quick
            test_ring_fuel_partial_deterministic;
        ] );
      ( "cow",
        [ Alcotest.test_case "ring straddles CoW page" `Quick test_ring_cow_straddle ] );
      ( "chaos",
        [
          Alcotest.test_case "ring_corrupt injection" `Quick test_ring_corrupt_injected;
          Alcotest.test_case "supervised availability" `Quick
            test_ring_corrupt_supervised_availability;
        ] );
    ]
