(* Fault-injection plans, the injection sites in the KVM model, and the
   virtine supervisor (retry / watchdog / quarantine) built on them. *)

module FP = Cycles.Fault_plan
module R = Wasp.Runtime
module S = Wasp.Supervisor

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_round_trip () =
  let p =
    FP.create ~seed:0xBEEF
      [
        ("spurious_exit", FP.Prob 0.05);
        ("guest_hang", FP.Every { start = 50; interval = 100 });
      ]
  in
  let text = FP.to_string p in
  match FP.of_string text with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok q ->
      Alcotest.(check string) "textual form is a fixed point" text (FP.to_string q)

let test_plan_schedule () =
  let p = FP.create [ ("s", FP.Every { start = 2; interval = 3 }) ] in
  let fired = List.init 10 (fun _ -> FP.fires p ~site:"s") in
  Alcotest.(check (list bool))
    "fires at 2, 5, 8"
    [ false; false; true; false; false; true; false; false; true; false ]
    fired;
  Alcotest.(check int) "injections counted" 3 (FP.total_injected p)

let test_plan_one_shot_schedule () =
  let p = FP.create [ ("s", FP.Every { start = 1; interval = 0 }) ] in
  let fired = List.init 6 (fun _ -> FP.fires p ~site:"s") in
  Alcotest.(check (list bool))
    "interval 0 fires exactly once"
    [ false; true; false; false; false; false ]
    fired

let test_plan_prob_deterministic () =
  let draws plan = List.init 300 (fun _ -> FP.fires plan ~site:"s") in
  let a = draws (FP.create ~seed:7 [ ("s", FP.Prob 0.3) ]) in
  let b = draws (FP.create ~seed:7 [ ("s", FP.Prob 0.3) ]) in
  Alcotest.(check (list bool)) "same seed, same stream" a b;
  let c = draws (FP.create ~seed:8 [ ("s", FP.Prob 0.3) ]) in
  Alcotest.(check bool) "different seed differs somewhere" true (a <> c);
  let hits = List.length (List.filter Fun.id a) in
  Alcotest.(check bool)
    (Printf.sprintf "rate plausible (%d/300 at p=0.3)" hits)
    true
    (hits > 40 && hits < 150)

let test_plan_site_streams_independent () =
  (* Adding a second site must not perturb the first site's stream. *)
  let alone = FP.create ~seed:42 [ ("a", FP.Prob 0.5) ] in
  let paired = FP.create ~seed:42 [ ("a", FP.Prob 0.5); ("b", FP.Prob 0.5) ] in
  let seq =
    List.init 100 (fun _ ->
        ignore (FP.fires paired ~site:"b");
        FP.fires paired ~site:"a")
  in
  let ref_seq = List.init 100 (fun _ -> FP.fires alone ~site:"a") in
  Alcotest.(check (list bool)) "site a unaffected by site b" ref_seq seq

let test_plan_reset_and_copy () =
  (* a plan re-armed from its textual form, as a replay re-arms one,
     fires the same stream from the start *)
  let p = FP.create ~seed:3 [ ("s", FP.Prob 0.4) ] in
  let first = List.init 50 (fun _ -> FP.fires p ~site:"s") in
  let q = Result.get_ok (FP.of_string (FP.to_string p)) in
  let copied = List.init 50 (fun _ -> FP.fires q ~site:"s") in
  Alcotest.(check (list bool)) "re-armed plan replays the stream" first copied;
  Alcotest.(check int) "re-armed plan has its own counters" (FP.total_injected p)
    (FP.total_injected q)

let test_plan_unknown_site_never_fires () =
  let p = FP.create [ ("s", FP.Prob 1.0) ] in
  Alcotest.(check bool) "unknown site" false (FP.fires p ~site:"ghost");
  Alcotest.(check int) "not counted" 0 (FP.total_injected p)

let test_plan_parse_errors () =
  let bad text =
    match FP.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
  in
  bad "s=p1.5";
  bad "s=pforty";
  bad "s=@-1+2";
  bad "s=wat";
  bad "seed=zz;s=p0.1";
  bad "s=p0.1;s=p0.2";
  (match FP.of_string "# just a comment\n\nseed=0x10;s=p0.25" with
  | Ok p ->
      Alcotest.(check string) "comments and blanks skipped" "seed=0x10;s=p0.25"
        (FP.to_string p)
  | Error e -> Alcotest.failf "comment form should parse: %s" e);
  match FP.create [ ("bad name", FP.Prob 0.1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "whitespace in a site name must be rejected"

(* ------------------------------------------------------------------ *)
(* Injection sites in the KVM model                                    *)
(* ------------------------------------------------------------------ *)

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

let fib_image ?(name = "fib") () = Wasp.Image.of_asm_string ~name fib_src

(* dies immediately: wild load far outside guest memory *)
let crash_image ?(name = "crash") () =
  Wasp.Image.of_asm_string ~name {|
start:
  mov r1, 0x7ffffff0
  ld64 r0, [r1]
  hlt
|}

let test_inject_provision_fail () =
  let w = R.create ~pool:false () in
  R.set_fault_plan w
    (Some
       (FP.create
          [ (Kvmsim.Kvm.site_provision_fail, FP.Every { start = 0; interval = 0 }) ]));
  (match R.run w (fib_image ()) () with
  | exception Kvmsim.Kvm.Injected_failure site ->
      Alcotest.(check string) "names the site" Kvmsim.Kvm.site_provision_fail site
  | _ -> Alcotest.fail "expected Injected_failure from VM creation");
  Alcotest.(check int) "stat counted"
    1
    (Kvmsim.Kvm.stats (R.kvm w)).Kvmsim.Kvm.injected_faults;
  (* the next creation is opportunity 1: no longer scheduled *)
  match R.run w (fib_image ()) () with
  | { R.outcome = R.Exited _; _ } -> ()
  | _ -> Alcotest.fail "second run should survive"

let test_inject_guest_hang () =
  let w = R.create () in
  R.set_fault_plan w
    (Some
       (FP.create [ (Kvmsim.Kvm.site_guest_hang, FP.Every { start = 0; interval = 0 }) ]));
  let r = R.run w (fib_image ()) ~fuel:10_000 () in
  (match r.R.outcome with
  | R.Fuel_exhausted -> ()
  | _ -> Alcotest.fail "a hung guest must burn its fuel");
  Alcotest.(check bool) "stat counted" true
    ((Kvmsim.Kvm.stats (R.kvm w)).Kvmsim.Kvm.injected_faults >= 1)

let test_inject_spurious_exit_costs_cycles () =
  let baseline () =
    let w = R.create ~seed:0x51 () in
    (R.run w (fib_image ()) ()).R.cycles
  in
  let armed () =
    let w = R.create ~seed:0x51 () in
    R.set_fault_plan w
      (Some
         (FP.create
            [ (Kvmsim.Kvm.site_spurious_exit, FP.Every { start = 0; interval = 1 }) ]));
    (R.run w (fib_image ()) ()).R.cycles
  in
  let plain = baseline () and a = armed () and b = armed () in
  Alcotest.(check int64) "injection cost is deterministic" a b;
  Alcotest.(check bool)
    (Printf.sprintf "storm slower than clean run (%Ld vs %Ld)" a plain)
    true (a > plain)

(* snapshot image borrowed from test_wasp: init loop, snapshot, then use
   the argument *)
let snap_image =
  Wasp.Image.of_asm_string ~name:"snap"
    {|
  mov r10, 0
init:
  add r10, 1
  cmp r10, 5000
  jlt init
  mov r0, 6        ; snapshot hypercall
  out 1, r0
  mov r1, 0
  ld64 r1, [r1]
  add r1, r10
  mov r0, 0
  out 1, r0
|}

let snap_policy = Wasp.Policy.of_list [ Wasp.Hc.snapshot ]

let test_inject_snapshot_corrupt () =
  let w = R.create () in
  R.set_fault_plan w
    (Some
       (FP.create
          [ (Kvmsim.Kvm.site_snapshot_corrupt, FP.Every { start = 0; interval = 0 }) ]));
  (* first run captures the snapshot; restores are the opportunities *)
  let r1 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"chaos" ~args:[ 1L ] () in
  Alcotest.(check int64) "capture run is clean" 5001L r1.R.return_value;
  let r2 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"chaos" ~args:[ 2L ] () in
  (match r2.R.outcome with
  | R.Faulted _ -> ()
  | _ -> Alcotest.fail "restoring a corrupted snapshot must fault the guest");
  (* opportunity 1 is past the schedule: the store itself is intact *)
  let r3 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"chaos" ~args:[ 3L ] () in
  Alcotest.(check int64) "later restores are clean" 5003L r3.R.return_value

let test_snapshot_corrupt_tiles () =
  (* the corrupting write, and the CoW break it triggers, are restore
     work: with snapshot_corrupt firing on every restore, each
     invocation's depth-1 phase spans still sum exactly to its cycles *)
  List.iter
    (fun reset ->
      let w = R.create ~reset () in
      let hub = Telemetry.Hub.create ~clock:(R.clock w) () in
      R.set_telemetry w (Some hub);
      R.set_fault_plan w
        (Some
           (FP.create
              [ (Kvmsim.Kvm.site_snapshot_corrupt, FP.Every { start = 0; interval = 1 }) ]));
      let results =
        List.map
          (fun a -> R.run w snap_image ~policy:snap_policy ~snapshot_key:"tile" ~args:[ a ] ())
          [ 1L; 2L; 3L ]
      in
      let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
      let roots =
        List.filter (fun (s : Telemetry.Span.span) -> s.depth = 0 && s.name = "invocation") spans
        |> List.sort (fun (a : Telemetry.Span.span) b -> compare a.seq b.seq)
      in
      Alcotest.(check int) "one root per invocation" 3 (List.length roots);
      List.iteri
        (fun i ((root : Telemetry.Span.span), (r : R.result)) ->
          let next =
            match List.nth_opt roots (i + 1) with Some n -> n.seq | None -> max_int
          in
          let phases =
            List.fold_left
              (fun acc (s : Telemetry.Span.span) ->
                if s.depth = 1 && s.seq > root.seq && s.seq < next then
                  Int64.add acc s.duration
                else acc)
              0L spans
          in
          Alcotest.(check int64)
            (Printf.sprintf "invocation %d: phases tile its cycles" i)
            r.R.cycles phases)
        (List.combine roots results);
      Alcotest.(check int) "both restores corrupted" 2
        (Kvmsim.Kvm.stats (R.kvm w)).Kvmsim.Kvm.injected_faults)
    [ `Memcpy; `Cow ]

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let test_supervisor_clean_success () =
  let w = R.create () in
  let sup = S.create w in
  let o = S.run sup (fib_image ()) () in
  (match o.S.result with
  | Ok r -> Alcotest.(check int64) "fib result" 55L r.R.return_value
  | Error (_, msg) -> Alcotest.failf "unexpected failure: %s" msg);
  Alcotest.(check int) "one attempt" 1 o.S.attempts;
  Alcotest.(check int) "no retries" 0 o.S.retries;
  Alcotest.(check int) "no backoff" 0 o.S.backoff_cycles;
  let st = S.stats sup in
  Alcotest.(check int) "stats supervised" 1 st.S.supervised;
  Alcotest.(check int) "stats succeeded" 1 st.S.succeeded

let test_supervisor_retries_transient_hang () =
  let w = R.create () in
  (* hang exactly the first KVM_RUN; the retry's runs are clean *)
  R.set_fault_plan w
    (Some
       (FP.create [ (Kvmsim.Kvm.site_guest_hang, FP.Every { start = 0; interval = 0 }) ]));
  let sup =
    S.create ~config:{ S.default_config with S.attempt_fuel = Some 10_000 } w
  in
  let o = S.run sup (fib_image ()) () in
  (match o.S.result with
  | Ok r -> Alcotest.(check int64) "recovered result" 55L r.R.return_value
  | Error (_, msg) -> Alcotest.failf "supervisor should have recovered: %s" msg);
  Alcotest.(check int) "two attempts" 2 o.S.attempts;
  Alcotest.(check int) "one retry" 1 o.S.retries;
  Alcotest.(check int) "backed off the base delay" S.default_config.S.backoff_base
    o.S.backoff_cycles

let test_supervisor_timeout_class_and_backoff () =
  let w = R.create () in
  R.set_fault_plan w
    (Some (FP.create [ (Kvmsim.Kvm.site_guest_hang, FP.Prob 1.0) ]));
  let config =
    {
      S.default_config with
      S.max_retries = 3;
      backoff_base = 100;
      backoff_factor = 2;
      attempt_fuel = Some 5_000;
      quarantine_threshold = 1000;
    }
  in
  let sup = S.create ~config w in
  let before = Cycles.Clock.now (R.clock w) in
  let o = S.run sup (fib_image ()) () in
  (match o.S.result with
  | Error (S.Timeout, _) -> ()
  | Error (c, m) -> Alcotest.failf "wrong class %s: %s" (S.error_class_to_string c) m
  | Ok _ -> Alcotest.fail "every attempt hangs; must fail");
  Alcotest.(check int) "all attempts spent" 4 o.S.attempts;
  Alcotest.(check int) "backoff 100+200+400" 700 o.S.backoff_cycles;
  Alcotest.(check bool) "clock charged at least the backoff" true
    (Cycles.Clock.elapsed_since (R.clock w) before >= 700L);
  let st = S.stats sup in
  Alcotest.(check int) "stats retries" 3 st.S.retries;
  Alcotest.(check int) "stats failed" 1 st.S.failed

let test_supervisor_fault_class () =
  let w = R.create () in
  let sup =
    S.create
      ~config:{ S.default_config with S.max_retries = 1; quarantine_threshold = 1000 }
      w
  in
  let o = S.run sup (crash_image ()) () in
  match o.S.result with
  | Error (S.Fault, _) -> Alcotest.(check int) "retried once" 2 o.S.attempts
  | Error (c, m) -> Alcotest.failf "wrong class %s: %s" (S.error_class_to_string c) m
  | Ok _ -> Alcotest.fail "wild load must fault"

let test_supervisor_policy_is_terminal () =
  (* clock hypercall under deny-all: completes, but with a denial *)
  let img =
    Wasp.Image.of_asm_string ~name:"denier"
      {|
start:
  mov r0, 12
  out 1, r0
  mov r0, 0
  out 1, r0
  hlt
|}
  in
  let w = R.create () in
  let sup = S.create ~config:{ S.default_config with S.fail_on_denied = true } w in
  let o = S.run sup img () in
  (match o.S.result with
  | Error (S.Policy, _) -> ()
  | Error (c, m) -> Alcotest.failf "wrong class %s: %s" (S.error_class_to_string c) m
  | Ok _ -> Alcotest.fail "denied hypercall must be a policy failure");
  Alcotest.(check int) "policy violations are not retried" 1 o.S.attempts;
  (* without fail_on_denied the same run is a success *)
  let lax = S.create w in
  match (S.run lax img ()).S.result with
  | Ok _ -> ()
  | Error (_, m) -> Alcotest.failf "lax supervisor should succeed: %s" m

let test_supervisor_quarantine_lifecycle () =
  let w = R.create () in
  let config =
    {
      S.default_config with
      S.max_retries = 0;
      quarantine_threshold = 2;
      quarantine_cooldown = 1_000L;
    }
  in
  let sup = S.create ~config w in
  let img = crash_image () in
  let fail_once () =
    match (S.run sup img ()).S.result with
    | Error (S.Fault, _) -> ()
    | _ -> Alcotest.fail "expected a fault"
  in
  fail_once ();
  Alcotest.(check bool) "one failure: not yet quarantined" false
    (S.quarantined sup ~key:"crash");
  fail_once ();
  Alcotest.(check bool) "streak hit threshold" true (S.quarantined sup ~key:"crash");
  let o = S.run sup img () in
  (match o.S.result with
  | Error (S.Overload, _) -> ()
  | _ -> Alcotest.fail "quarantined image must be rejected");
  Alcotest.(check int) "rejected without running" 0 o.S.attempts;
  Alcotest.(check int) "rejection counted" 1 (S.stats sup).S.quarantine_rejections;
  (* cooldown elapses on the virtual clock: one probe is admitted *)
  Cycles.Clock.advance_int (R.clock w) 2_000;
  Alcotest.(check bool) "cooldown lifts quarantine" false
    (S.quarantined sup ~key:"crash");
  let probe = S.run sup img () in
  Alcotest.(check int) "probe actually ran" 1 probe.S.attempts;
  Alcotest.(check bool) "failed probe re-quarantines" true
    (S.quarantined sup ~key:"crash")

let test_supervisor_quarantine_forever () =
  (* a cooldown of [Int64.max_int] quarantines for good: the end of the
     window is past the clock's range, so it is never stamped *)
  let w = R.create () in
  let config =
    {
      S.default_config with
      S.max_retries = 0;
      quarantine_threshold = 1;
      quarantine_cooldown = Int64.max_int;
    }
  in
  let sup = S.create ~config w in
  let img = crash_image () in
  ignore (S.run sup img ());
  Alcotest.(check bool) "quarantined" true (S.quarantined sup ~key:"crash");
  Cycles.Clock.advance_int (R.clock w) 1_000_000_000;
  let o = S.run sup img () in
  Alcotest.(check int) "still rejected without running" 0 o.S.attempts

let test_supervisor_success_resets_streak () =
  let w = R.create () in
  let config =
    { S.default_config with S.max_retries = 0; quarantine_threshold = 2 }
  in
  let sup = S.create ~config w in
  (* one name, so one key: the image changed between runs *)
  ignore (S.run sup (crash_image ~name:"k" ()) ());
  ignore (S.run sup (fib_image ~name:"k" ()) ());
  ignore (S.run sup (crash_image ~name:"k" ()) ());
  Alcotest.(check bool) "success in between resets the streak" false
    (S.quarantined sup ~key:"k")

let chaos_arm () =
  let w = R.create ~seed:0xD1CE () in
  R.set_fault_plan w
    (Some
       (FP.create ~seed:0xFA17
          [
            (Kvmsim.Kvm.site_guest_hang, FP.Prob 0.2);
            (Kvmsim.Kvm.site_spurious_exit, FP.Prob 0.3);
          ]));
  let sup =
    S.create
      ~config:
        { S.default_config with S.attempt_fuel = Some 20_000; quarantine_threshold = 50 }
      w
  in
  let img = fib_image () in
  for _ = 1 to 20 do
    ignore (S.run sup img ())
  done;
  ((S.stats sup).S.retries, Cycles.Clock.now (R.clock w))

let test_supervisor_retry_schedule_deterministic () =
  let retries_a, clock_a = chaos_arm () in
  let retries_b, clock_b = chaos_arm () in
  Alcotest.(check bool) "the plan actually bit" true (retries_a > 0);
  Alcotest.(check int) "same retry schedule" retries_a retries_b;
  Alcotest.(check int64) "same final cycle count" clock_a clock_b

(* ------------------------------------------------------------------ *)
(* One breaker: Wasp.Breaker against both policies it replaced           *)
(* ------------------------------------------------------------------ *)

(* A script of clock moves and requests. [Jump] sets the clock to any
   value, as reading another core's clock can; a request is admitted or
   not, and an admitted one succeeds, fails or ([`Silent], the gateway's
   404) reports nothing. *)
type bop = Advance of int64 | Jump of int64 | Request of [ `Ok | `Fail | `Silent ]

let bop_to_string = function
  | Advance d -> Printf.sprintf "+%Ld" d
  | Jump v -> Printf.sprintf "=%Ld" v
  | Request `Ok -> "ok"
  | Request `Fail -> "fail"
  | Request `Silent -> "silent"

(* thresholds 1-4; cooldowns 0, small and [Int64.max_int] *)
let breaker_script ~outcomes =
  let open QCheck.Gen in
  let cooldown = oneof [ return 0L; map Int64.of_int (int_range 1 50); return Int64.max_int ] in
  let delta =
    frequency
      [ (8, map Int64.of_int (int_bound 60)); (1, map Int64.of_int (int_bound max_int));
        (1, return Int64.max_int) ]
  in
  let op =
    frequency
      [ (3, map (fun d -> Advance d) delta); (1, map (fun v -> Jump v) delta);
        (8, map (fun o -> Request o) (oneofl outcomes)) ]
  in
  QCheck.make
    ~print:(fun (th, cd, ops) ->
      Printf.sprintf "threshold %d, cooldown %Ld: %s" th cd
        (String.concat " " (List.map bop_to_string ops)))
    (triple (int_range 1 4) cooldown (list_size (int_bound 80) op))

(* Run [ops] on the breaker and a model; [agree ~now] compares their
   state readings after every step. Admissions and the failure count at
   each opening are compared as they happen. *)
let breaker_agrees (threshold, cooldown, ops) ~admit ~succeed ~fail ~agree =
  let b = Wasp.Breaker.create ~threshold ~cooldown in
  let now = ref 0L in
  let step = function
    | Advance d ->
        now := if Int64.compare d (Int64.sub Int64.max_int !now) > 0 then Int64.max_int
               else Int64.add !now d;
        true
    | Jump v ->
        now := v;
        true
    | Request outcome -> (
        let now = !now in
        let a = Wasp.Breaker.admit b ~now in
        a = admit ~now
        &&
        match (a, outcome) with
        | Rejected, _ | (Admitted | Probe), `Silent -> true
        | (Admitted | Probe), `Ok ->
            Wasp.Breaker.succeed b;
            succeed ();
            true
        | (Admitted | Probe), `Fail ->
            let opened =
              if Wasp.Breaker.fail b ~now then Some (Wasp.Breaker.failures b) else None
            in
            opened = fail ~now)
  in
  List.for_all (fun op -> step op && agree b ~now:!now) ops

let prop_breaker_is_gateway_breaker =
  QCheck.Test.make ~name:"breaker = the gateway's breaker" ~count:500
    (breaker_script ~outcomes:[ `Ok; `Fail; `Silent ])
    (fun ((threshold, cooldown, _) as script) ->
      let m = Breakerref.Gateway.create ~threshold ~cooldown in
      breaker_agrees script
        ~admit:(fun ~now -> Breakerref.Gateway.admit m ~now)
        ~succeed:(fun () -> Breakerref.Gateway.succeed m)
        ~fail:(fun ~now -> Breakerref.Gateway.fail m ~now)
        ~agree:(fun b ~now -> Wasp.Breaker.state b ~now = Breakerref.Gateway.state m ~now))

let prop_breaker_is_quarantine =
  QCheck.Test.make ~name:"breaker = the supervisor's quarantine" ~count:500
    (breaker_script ~outcomes:[ `Ok; `Fail ])
    (fun ((threshold, cooldown, _) as script) ->
      let m = Breakerref.Quarantine.create ~threshold ~cooldown in
      breaker_agrees script
        ~admit:(fun ~now -> Breakerref.Quarantine.admit m ~now)
        ~succeed:(fun () -> Breakerref.Quarantine.succeed m)
        ~fail:(fun ~now -> Breakerref.Quarantine.fail m ~now)
        ~agree:(fun b ~now ->
          (Wasp.Breaker.state b ~now = Open) = Breakerref.Quarantine.in_quarantine m ~now))

(* ------------------------------------------------------------------ *)
(* Chaos recordings replay with zero divergence                        *)
(* ------------------------------------------------------------------ *)

let ok = function Ok x -> x | Error e -> Alcotest.fail e

let record_chaos plan =
  let img = fib_image () in
  let w = R.create ~seed:0xACE () in
  R.set_fault_plan w (Some plan);
  let rc = ok (R.record w ~fault_plan:(FP.to_string plan) img Wasp.Policy.deny_all ~fuel:1_000_000) in
  ignore (R.run w img ~fuel:1_000_000 ());
  rc

(* ------------------------------------------------------------------ *)
(* Supervision in the trace: sibling attempts, SLO wiring              *)
(* ------------------------------------------------------------------ *)

let traced_supervisor ?(config = S.default_config) () =
  let w = R.create () in
  let hub = Telemetry.Hub.create ~clock:(R.clock w) () in
  R.set_telemetry w (Some hub);
  Telemetry.Hub.enable_tracing hub ~seed:0xACE;
  (S.create ~config w, hub)

let span_arg k (s : Telemetry.Span.span) = List.assoc_opt k s.Telemetry.Span.args

let test_supervisor_attempts_are_siblings () =
  let sup, hub =
    traced_supervisor
      ~config:
        {
          S.default_config with
          S.max_retries = 3;
          attempt_fuel = Some 5_000;
          quarantine_threshold = 1000;
        }
      ()
  in
  R.set_fault_plan (S.runtime sup)
    (Some (FP.create [ (Kvmsim.Kvm.site_guest_hang, FP.Prob 1.0) ]));
  let o = S.run sup (fib_image ()) () in
  Alcotest.(check int) "all attempts spent" 4 o.S.attempts;
  let spans = Telemetry.Span.spans (Telemetry.Hub.spans hub) in
  let supervised = List.find (fun (s : Telemetry.Span.span) -> s.name = "supervised") spans in
  let sid = Option.get (span_arg "span_id" supervised) in
  let attempts =
    List.filter (fun (s : Telemetry.Span.span) -> s.name = "attempt") spans
  in
  Alcotest.(check int) "one span per attempt" 4 (List.length attempts);
  (* every attempt is a *direct* child of the supervised span — a fan of
     siblings, not a recursion ladder *)
  List.iter
    (fun s ->
      Alcotest.(check (option string)) "attempt parent = supervised" (Some sid)
        (span_arg "parent_id" s))
    attempts;
  Alcotest.(check (list string)) "attempt numbers in order" [ "1"; "2"; "3"; "4" ]
    (List.filter_map (span_arg "attempt") attempts);
  (* backoff is charged inside its attempt, so attempts tile the parent *)
  let sum =
    List.fold_left (fun acc (s : Telemetry.Span.span) -> Int64.add acc s.duration)
      0L attempts
  in
  Alcotest.(check int64) "attempts tile the supervised span"
    supervised.Telemetry.Span.duration sum;
  (* the retry instants carry the trace id of the supervised invocation *)
  let trace = Option.get (span_arg "trace_id" supervised) in
  let retries =
    List.filter_map
      (function
        | Telemetry.Span.Instant { i_name = "supervisor_retry"; i_args; _ } ->
            List.assoc_opt "trace_id" i_args
        | _ -> None)
      (Telemetry.Span.items (Telemetry.Hub.spans hub))
  in
  Alcotest.(check (list string)) "retries stamped with the trace" [ trace; trace; trace ]
    retries

let test_supervisor_slo_wiring () =
  let sup, hub =
    traced_supervisor
      ~config:
        {
          S.default_config with
          S.max_retries = 0;
          attempt_fuel = Some 5_000;
          quarantine_threshold = 2;
        }
      ()
  in
  let slo =
    Telemetry.Slo.create ~hub ~name:"sup" ~target:0.9 ~period:100_000_000L ()
  in
  S.set_slo sup (Some slo);
  let img = fib_image () in
  let o = S.run sup img () in
  Alcotest.(check bool) "clean run succeeds" true (Result.is_ok o.S.result);
  Alcotest.(check int) "success recorded good" 1 (Series.slo_good hub ~slo:"sup");
  R.set_fault_plan (S.runtime sup)
    (Some (FP.create [ (Kvmsim.Kvm.site_guest_hang, FP.Prob 1.0) ]));
  ignore (S.run sup img ());
  ignore (S.run sup img ());
  Alcotest.(check int) "exhausted failures recorded bad" 2 (Series.slo_bad hub ~slo:"sup");
  (* image is quarantined now; the rejection is an SLO event too *)
  Alcotest.(check bool) "quarantined" true (S.quarantined sup ~key:"fib");
  ignore (S.run sup img ());
  Alcotest.(check int) "quarantine rejection recorded bad" 3
    (Series.slo_bad hub ~slo:"sup")

(* A key whose retained CoW shell lives on core 0, supervised from core
   1 after core 0's clock ran 5M cycles ahead: the invocation runs on
   core 0, and so do the spans around it and the reported cycles. *)
let test_supervised_on_home_core () =
  let w = R.create ~seed:0xACE ~cores:2 ~reset:`Cow () in
  let hub = Telemetry.Hub.create ~clock:(R.clock w) () in
  R.set_telemetry w (Some hub);
  let sup = S.create w in
  let img =
    Wasp.Image.of_asm_string ~name:"home"
      "mov r0, 6\nout 1, r0\nmov r1, 0x1000\nmov r2, 7\nst64 [r1], r2\nmov r0, 0\nout 1, r0"
  in
  let run () =
    S.run sup img ~policy:(Wasp.Policy.of_list [ Wasp.Hc.snapshot ]) ~snapshot_key:"home" ()
  in
  R.on_core w 0;
  ignore (run ());
  Cycles.Clock.advance_int (R.core_clock w 0) 5_000_000;
  R.on_core w 1;
  Telemetry.Hub.clear_spans hub;
  let o = run () in
  let r = ok (Result.map_error snd o.S.result) in
  Alcotest.(check bool) "restored on the retained shell" true r.R.from_snapshot;
  let span name =
    List.find
      (fun (s : Telemetry.Span.span) -> s.name = name)
      (Telemetry.Span.spans (Telemetry.Hub.spans hub))
  in
  List.iter
    (fun name ->
      let s = span name in
      Alcotest.(check int) (name ^ " on the shell's home core") 0 s.Telemetry.Span.core;
      Alcotest.(check int64) (name ^ " = invocation cycles") r.R.cycles s.Telemetry.Span.duration)
    [ "supervised"; "attempt"; "invocation" ];
  Alcotest.(check int64) "outcome.cycles = invocation cycles" r.R.cycles o.S.cycles

let test_chaos_vxr_zero_divergence () =
  let plan () =
    FP.create ~seed:0xC4A05
      [
        (Kvmsim.Kvm.site_spurious_exit, FP.Every { start = 0; interval = 2 });
        (Kvmsim.Kvm.site_ept_storm, FP.Every { start = 1; interval = 3 });
      ]
  in
  let p = plan () in
  let a = record_chaos p in
  Alcotest.(check bool) "faults were injected" true (FP.total_injected p > 0);
  (* re-arm from the recording's own textual plan, as --replay does *)
  let recorded =
    match Profiler.Replay.fault_plan a with
    | Some text -> text
    | None -> Alcotest.fail "recording lost its fault plan"
  in
  let q =
    match FP.of_string recorded with
    | Ok q -> q
    | Error e -> Alcotest.failf "recorded plan unparseable: %s" e
  in
  let b = record_chaos q in
  Alcotest.(check (list string)) "chaos replay is cycle-for-cycle" []
    (Profiler.Replay.diff a b)

(* The runtime finishes an attached recording at the end of every run, so
   a supervised invocation leaves it finished by its last attempt: here
   the first attempt's VM creation fails (a faulted trailer at 0 cycles)
   and the retry exits. *)
let test_supervised_recording_finished_by_last_attempt () =
  let w = R.create () in
  R.set_fault_plan w
    (Some
       (FP.create
          [ (Kvmsim.Kvm.site_provision_fail, FP.Every { start = 0; interval = 0 }) ]));
  let img = fib_image () in
  let rc = ok (R.record w img Wasp.Policy.deny_all ~fuel:1_000_000) in
  let sup = S.create ~config:{ S.default_config with S.attempt_fuel = Some 1_000_000 } w in
  let o = S.run sup img () in
  Alcotest.(check int) "one retry" 2 o.S.attempts;
  let r = match o.S.result with Ok r -> r | Error (_, e) -> Alcotest.fail e in
  Alcotest.(check string) "outcome of the last attempt" "exited" (Profiler.Replay.outcome rc);
  Alcotest.(check int64) "cycles of the last attempt" r.R.cycles (Profiler.Replay.total_cycles rc);
  Alcotest.(check bool) "not the supervised total, which includes the backoff" true
    (Int64.compare r.R.cycles o.S.cycles < 0);
  (* the [.vxr] trailer's last line carries the return value *)
  Alcotest.(check bool) "return value of the last attempt" true
    (String.ends_with
       ~suffix:(Printf.sprintf "\nret %Ld\n" r.R.return_value)
       (Profiler.Replay.to_string rc));
  Alcotest.(check int) "its hypercalls" r.R.hypercalls (Profiler.Replay.event_count rc)

let () =
  Alcotest.run "supervisor"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "round trip" `Quick test_plan_round_trip;
          Alcotest.test_case "schedule" `Quick test_plan_schedule;
          Alcotest.test_case "one-shot schedule" `Quick test_plan_one_shot_schedule;
          Alcotest.test_case "prob deterministic" `Quick test_plan_prob_deterministic;
          Alcotest.test_case "site independence" `Quick test_plan_site_streams_independent;
          Alcotest.test_case "reset and copy" `Quick test_plan_reset_and_copy;
          Alcotest.test_case "unknown site" `Quick test_plan_unknown_site_never_fires;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
        ] );
      ( "injection",
        [
          Alcotest.test_case "provision fail" `Quick test_inject_provision_fail;
          Alcotest.test_case "guest hang" `Quick test_inject_guest_hang;
          Alcotest.test_case "spurious exit cost" `Quick
            test_inject_spurious_exit_costs_cycles;
          Alcotest.test_case "snapshot corrupt" `Quick test_inject_snapshot_corrupt;
          Alcotest.test_case "snapshot corrupt tiles the restore" `Quick
            test_snapshot_corrupt_tiles;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "clean success" `Quick test_supervisor_clean_success;
          Alcotest.test_case "retries transient hang" `Quick
            test_supervisor_retries_transient_hang;
          Alcotest.test_case "timeout class and backoff" `Quick
            test_supervisor_timeout_class_and_backoff;
          Alcotest.test_case "fault class" `Quick test_supervisor_fault_class;
          Alcotest.test_case "policy terminal" `Quick test_supervisor_policy_is_terminal;
          Alcotest.test_case "quarantine lifecycle" `Quick
            test_supervisor_quarantine_lifecycle;
          Alcotest.test_case "quarantine forever" `Quick test_supervisor_quarantine_forever;
          Alcotest.test_case "success resets streak" `Quick
            test_supervisor_success_resets_streak;
          Alcotest.test_case "retry determinism" `Quick
            test_supervisor_retry_schedule_deterministic;
          Alcotest.test_case "attempts are sibling spans" `Quick
            test_supervisor_attempts_are_siblings;
          Alcotest.test_case "slo wiring" `Quick test_supervisor_slo_wiring;
          Alcotest.test_case "spans and cycles on the shell's home core" `Quick
            test_supervised_on_home_core;
        ] );
      ( "breaker",
        List.map QCheck_alcotest.to_alcotest
          [ prop_breaker_is_gateway_breaker; prop_breaker_is_quarantine ] );
      ( "chaos-replay",
        [
          Alcotest.test_case "vxr zero divergence" `Quick test_chaos_vxr_zero_divergence;
          Alcotest.test_case "supervised recording finished by its last attempt" `Quick
            test_supervised_recording_finished_by_last_attempt;
        ] );
    ]
