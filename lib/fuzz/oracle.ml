(* The differential oracle.

   Every candidate executes several times under configurations the
   determinism contract says must agree, and any disagreement is a
   finding even when nothing crashes:

   - [Vm.Translate] vs the reference stepper ([Reference]), both on a
     bare vCPU under one stub hypervisor (bit-identical everything,
     cycles included — the engine contract);
   - eager [`Memcpy] vs lazy [`Cow] snapshot restore (identical
     guest-visible results; cycles legitimately differ between the two
     reset mechanisms, so timing is excluded from this comparison);
   - a .vxr round trip: serialize the case, reparse it and re-execute —
     the committed-fixture property, exercised on every candidate;
   - host exceptions escaping the runtime anywhere are crashes
     (Injected_failure under a plan that arms provision_fail is an
     outcome, not a crash).

   Canaries are deliberately wrong harness arms — never product code —
   used by the fuzz smoke test to prove a planted bug is detected:
   [Shift_mask] re-runs the reference stepper with the reverted
   shift-count guard emulated via its step hook; [Cycle_skew] perturbs
   the translator arm's cycle observation. *)

type obs = {
  o_outcome : string;
  o_ret : int64;
  o_cycles : int64;
  o_hypercalls : int;
  o_denied : int;
  o_state : string;  (* MD5 of final registers + guest memory *)
  o_recording : Profiler.Replay.t;  (* every run's hypercalls, the last run's trailer *)
}

type fclass =
  | Host_exception
  | Engine_divergence
  | Restore_divergence
  | Replay_divergence
  | Canary_divergence

let fclass_name = function
  | Host_exception -> "host-exception"
  | Engine_divergence -> "engine-divergence"
  | Restore_divergence -> "restore-divergence"
  | Replay_divergence -> "replay-divergence"
  | Canary_divergence -> "canary-divergence"

type canary = Shift_mask | Cycle_skew

let canary_of_string = function
  | "shift-mask" -> Some Shift_mask
  | "cycle-skew" -> Some Cycle_skew
  | _ -> None

type verdict = {
  features : string list;  (* coverage features of the canonical run *)
  recording : Profiler.Replay.t option;  (* canonical transcript *)
  finding : (fclass * string) option;
}

(* Probes whose firing maps feed the coverage bitmap. *)
let coverage_spec =
  "exit { count() by (reason) }; hypercall { count() by (nr) }; hypercall_ret \
   { count() by (reason) }; ept { count() }; inject { count() by (reason) }; \
   ring_enter { count() }; ring_op { count() by (nr) }"

(* Detailed outcome for differential comparison (a recording carries
   only the runtime's coarse outcome word). *)
let outcome_string = function
  | Wasp.Runtime.Exited _ -> "exited"
  | Wasp.Runtime.Faulted f -> Format.asprintf "%a" Vm.Cpu.pp_exit (Vm.Cpu.Fault f)
  | Wasp.Runtime.Fuel_exhausted -> "fuel"

(* ------------------------------------------------------------------ *)
(* One runtime-level execution arm                                     *)
(* ------------------------------------------------------------------ *)

type arm_result = Obs of obs | Crash of string

let state_digest mem cpu =
  let b = Buffer.create 256 in
  for i = 0 to Instr.num_regs - 1 do
    Buffer.add_string b (Int64.to_string (Vm.Cpu.get_reg cpu i));
    Buffer.add_char b ','
  done;
  Buffer.add_bytes b (Vm.Memory.snapshot mem);
  Digest.to_hex (Digest.string (Buffer.contents b))

let plan_arms_provision_fail (case : Corpus.case) =
  match case.plan with
  | None -> false
  | Some text ->
      let re = "provision_fail" in
      let n = String.length text and m = String.length re in
      let rec go i = i + m <= n && (String.sub text i m = re || go (i + 1)) in
      go 0

(* Run [case] once ([runs] times in one runtime for the restore arms),
   recorded, and observe the last invocation. Anything an armed plan can
   inject — including Injected_failure from provision_fail — is an
   outcome, not a crash; only exceptions the plan cannot explain are.
   [post] observes the runtime after the runs (coverage harvest). *)
let run_arm ?(reset = `Memcpy) ?(runs = 1) ?snapshot_key
    ?probes ?profiler ?(post = fun (_ : Wasp.Runtime.t) -> ())
    (case : Corpus.case) : arm_result =
  let w = Wasp.Runtime.create ~seed:case.seed ~reset ~flight_capacity:256 () in
  let image = Corpus.image_of case in
  match Wasp.Runtime.record w ?fault_plan:case.plan image case.policy ~fuel:case.fuel with
  | Error e -> Crash e
  | Ok recording -> (
      try
        (match case.plan with
        | Some text -> (
            match Cycles.Fault_plan.of_string text with
            | Ok plan -> Wasp.Runtime.set_fault_plan w (Some plan)
            | Error e -> failwith ("unparseable case plan: " ^ e))
        | None -> ());
        Wasp.Runtime.set_probes w probes;
        Wasp.Runtime.set_profiler w profiler;
        let state = ref "" in
        let inspect mem cpu = state := state_digest mem cpu in
        let result = ref None in
        for _ = 1 to runs do
          result :=
            Some
              (Wasp.Runtime.run w image ~policy:case.policy ?snapshot_key
                 ~fuel:case.fuel ~inspect ())
        done;
        let r = Option.get !result in
        post w;
        Obs
          {
            o_outcome = outcome_string r.Wasp.Runtime.outcome;
            o_ret = r.Wasp.Runtime.return_value;
            o_cycles = r.Wasp.Runtime.cycles;
            o_hypercalls = r.Wasp.Runtime.hypercalls;
            o_denied = r.Wasp.Runtime.denied;
            o_state = !state;
            o_recording = recording;
          }
      with
      | Kvmsim.Kvm.Injected_failure site when plan_arms_provision_fail case ->
          (* provision_fail can only fire at the first run's VM creation
             (later runs reuse the pooled or retained shell), so the
             recording holds no hypercalls *)
          Obs
            {
              o_outcome = "injected:" ^ site;
              o_ret = 0L;
              o_cycles = 0L;
              o_hypercalls = 0;
              o_denied = 0;
              o_state = "";
              o_recording = recording;
            }
      | e -> Crash (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let events o = Profiler.Replay.events o.o_recording

let events_brief evs =
  String.concat ";"
    (List.map
       (fun (e : Profiler.Replay.event) -> Printf.sprintf "%Ld:%d:%Ld" e.at e.nr e.ret)
       evs)

(* Full comparison: the engine contract (timing included). *)
let diff_full a b =
  if a.o_outcome <> b.o_outcome then
    Some (Printf.sprintf "outcome %s vs %s" a.o_outcome b.o_outcome)
  else if a.o_ret <> b.o_ret then
    Some (Printf.sprintf "ret %Ld vs %Ld" a.o_ret b.o_ret)
  else if a.o_cycles <> b.o_cycles then
    Some (Printf.sprintf "cycles %Ld vs %Ld" a.o_cycles b.o_cycles)
  else if a.o_state <> b.o_state then
    Some (Printf.sprintf "final state %s vs %s" a.o_state b.o_state)
  else if events a <> events b then
    Some
      (Printf.sprintf "transcript [%s] vs [%s]" (events_brief (events a))
         (events_brief (events b)))
  else if a.o_hypercalls <> b.o_hypercalls || a.o_denied <> b.o_denied then
    Some
      (Printf.sprintf "hc/denied %d/%d vs %d/%d" a.o_hypercalls a.o_denied
         b.o_hypercalls b.o_denied)
  else None

(* Guest-visible comparison: the restore contract. [`Cow] restore
   charges different (cheaper) reset costs than [`Memcpy] by design, so
   cycle stamps are excluded; results, final state and the un-stamped
   hypercall sequence must match. *)
let diff_visible a b =
  let strip o =
    List.map (fun (e : Profiler.Replay.event) -> (e.nr, e.args, e.ret)) (events o)
  in
  if a.o_outcome <> b.o_outcome then
    Some (Printf.sprintf "outcome %s vs %s" a.o_outcome b.o_outcome)
  else if a.o_ret <> b.o_ret then
    Some (Printf.sprintf "ret %Ld vs %Ld" a.o_ret b.o_ret)
  else if a.o_state <> b.o_state then
    Some (Printf.sprintf "final state %s vs %s" a.o_state b.o_state)
  else if strip a <> strip b then
    Some "hypercall sequence (nr/args/ret) differs"
  else if a.o_denied <> b.o_denied then
    Some (Printf.sprintf "denied %d vs %d" a.o_denied b.o_denied)
  else None

(* ------------------------------------------------------------------ *)
(* The CPU-level engine arm                                            *)
(* ------------------------------------------------------------------ *)

(* An engine, given a fresh vCPU, returns its resumable run function. *)
type engine = Vm.Cpu.t -> fuel:int -> Vm.Cpu.exit_reason

(* The translator on a warm cache: each case's image lands at
   [image_base] over the blocks earlier cases left at the same pcs, in
   a new memory, so tag, byte and bounds revalidation all meet the
   reference stepper. *)
let translator cache : engine = fun cpu ~fuel -> Vm.Translate.run ~fuel cache cpu

let reference : engine = fun cpu ~fuel -> Reference.run ~fuel cpu

(* The case's image on a bare vCPU under a stub hypervisor, bounded
   resumes. [out] answers r0 := 0 and, when r1 names an in-range guest
   address, also writes a seeded 8-byte value there the way a [read]
   handler would, so host writes into already-translated pages stay
   under the oracle; [in] deposits a constant. The observation is a
   list of named fields; [skew] offsets the observed cycles. *)
let cpu_exec ?(skew = 0L) (engine : engine) (case : Corpus.case) =
  let mem = Vm.Memory.create ~size:(Corpus.mem_size_for case.code) in
  Vm.Memory.write_bytes mem ~off:Wasp.Layout.image_base (Bytes.of_string case.code);
  let clock = Cycles.Clock.create () in
  let cpu = Vm.Cpu.create ~mem ~mode:case.mode ~clock in
  Vm.Cpu.set_pc cpu Wasp.Layout.image_base;
  Vm.Cpu.set_sp cpu Wasp.Layout.stack_top;
  let run = engine cpu in
  let rng = Cycles.Rng.create ~seed:case.seed in
  let fuel = min case.fuel 100_000 in
  let rec go budget =
    let left = fuel - Int64.to_int (Vm.Cpu.instructions_retired cpu) in
    if left <= 0 then Vm.Cpu.Out_of_fuel
    else
      match run ~fuel:left with
      | Vm.Cpu.Io_out _ when budget > 0 ->
          Vm.Cpu.set_reg cpu 0 0L;
          let dst = Vm.Cpu.get_reg cpu 1 in
          if dst >= 0L && dst <= Int64.of_int (Vm.Memory.size mem - 8) then
            Vm.Memory.write_u64 mem (Int64.to_int dst) (Cycles.Rng.int64 rng);
          go (budget - 1)
      | Vm.Cpu.Io_in { reg; _ } when budget > 0 ->
          Vm.Cpu.set_reg cpu reg 0x5A5AL;
          go (budget - 1)
      | e -> e
  in
  let e = go 64 in
  [
    ("exit", Format.asprintf "%a" Vm.Cpu.pp_exit e);
    ("retired", Int64.to_string (Vm.Cpu.instructions_retired cpu));
    ("cycles", Int64.to_string (Int64.add skew (Cycles.Clock.now clock)));
  ]
  @ List.init Instr.num_regs (fun r ->
        (Printf.sprintf "r%d" r, Int64.to_string (Vm.Cpu.get_reg cpu r)))
  @ [ ("memory", Digest.to_hex (Digest.bytes (Vm.Memory.snapshot mem))) ]

(* The first field that differs. *)
let diff_cpu a b =
  List.find_map
    (fun ((k, x), (_, y)) -> if x <> y then Some (Printf.sprintf "%s %s vs %s" k x y) else None)
    (List.combine a b)

(* The shift-mask canary's hook for the reference stepper: emulates the
   reverted shift-count guard, where a count at or beyond the mode width
   produces 0 (Sar of a negative value saturates to -1) instead of using
   the masked count. It schedules a destination-register fixup, applied
   at the next instruction's hook call or when the run returns. *)
let buggy_shifts : engine =
 fun cpu ->
  let pending = ref None in
  let flush () =
    Option.iter (fun (rd, v) -> Vm.Cpu.set_reg cpu rd v) !pending;
    pending := None
  in
  let mode = Vm.Cpu.mode cpu in
  let hook ~pc:_ ~(instr : Instr.t) ~cost:_ =
    flush ();
    match instr with
    | Bin (((Shl | Shr | Sar) as op), rd, src) ->
        let count = match src with Reg r -> Vm.Cpu.get_reg cpu r | Imm i -> i in
        if Int64.unsigned_compare count (Int64.of_int (Vm.Modes.width_bits mode)) >= 0 then
          let negative = Int64.compare (Vm.Cpu.get_reg cpu rd) 0L < 0 in
          pending := Some (rd, if op = Sar && negative then Vm.Modes.mask mode (-1L) else 0L)
    | _ -> ()
  in
  fun ~fuel ->
    let e = Reference.run ~fuel ~hook cpu in
    flush ();
    e

(* The engine arm: translator vs reference, cycle-exact. The cycle-skew
   canary pretends the translator mis-charges one cycle. *)
let engine_arm ?canary ?(cache = Vm.Translate.create ()) (case : Corpus.case) =
  let skew = if canary = Some Cycle_skew then 1L else 0L in
  match diff_cpu (cpu_exec ~skew (translator cache) case) (cpu_exec reference case) with
  | None -> None
  | Some d ->
      let cls = if skew = 0L then Engine_divergence else Canary_divergence in
      Some (cls, "translator vs reference: " ^ d)
  | exception e -> Some (Host_exception, "engine arm: " ^ Printexc.to_string e)

let shift_mask_canary case =
  match diff_cpu (cpu_exec reference case) (cpu_exec buggy_shifts case) with
  | Some d -> Some ("reference vs buggy shifts: " ^ d)
  | None -> None
  | exception e -> Some ("canary arm crashed: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* The differential ladder below the canonical arm; first divergence
   wins. *)
let differential ?canary ?cache canonical (case : Corpus.case) =
  match engine_arm ?canary ?cache case with
  | Some finding -> Some finding
  | None -> (
      let restore reset = run_arm ~reset ~runs:2 ~snapshot_key:"fuzz" case in
      match (restore `Memcpy, restore `Cow) with
      | Crash d, _ -> Some (Host_exception, "memcpy-restore arm: " ^ d)
      | _, Crash d -> Some (Host_exception, "cow-restore arm: " ^ d)
      | Obs eager, Obs cow -> (
          match diff_visible eager cow with
          | Some d -> Some (Restore_divergence, "memcpy vs cow restore: " ^ d)
          | None -> (
              match Corpus.of_vxr_string (Corpus.to_vxr_string case) with
              | Error d -> Some (Replay_divergence, "own .vxr does not reparse: " ^ d)
              | Ok case' -> (
                  match run_arm case' with
                  | Crash d -> Some (Host_exception, "replay arm: " ^ d)
                  | Obs replayed -> (
                      match diff_full canonical replayed with
                      | Some d ->
                          Some (Replay_divergence, ".vxr round-trip re-execution diverged: " ^ d)
                      | None -> (
                          match canary with
                          | Some Shift_mask -> (
                              match shift_mask_canary case with
                              | Some d -> Some (Canary_divergence, "shift-mask canary: " ^ d)
                              | None -> None)
                          | _ -> None))))))

let classify ?canary ?cache (case : Corpus.case) : verdict =
  let probes =
    match Vtrace.Engine.of_string coverage_spec with
    | Ok e -> e
    | Error e -> failwith ("internal: bad coverage spec: " ^ e)
  in
  let profiler = Profiler.Profile.create () in
  let harvested = ref [] in
  let post w =
    harvested :=
      Coverage.kvm_features (Wasp.Runtime.kvm w)
      @ Coverage.flight_features (Wasp.Runtime.flight w)
  in
  (* The canonical arm: every coverage surface attached (the profiler
     runs the translator's hooked flavour). A crash here is a finding
     with no recording. *)
  match run_arm ~probes ~profiler ~post case with
  | Crash detail ->
      {
        features = [ "crash" ];
        recording = None;
        finding = Some (Host_exception, detail);
      }
  | Obs canonical ->
      let features =
        Coverage.outcome_features ~outcome:canonical.o_outcome
          ~ret:canonical.o_ret ~hypercalls:canonical.o_hypercalls
          ~denied:canonical.o_denied
        @ !harvested
        @ Coverage.vtrace_features probes
        @ Coverage.opcode_features profiler
      in
      let finding = differential ?canary ?cache canonical case in
      (* the canonical recording is the .vxr a fixture carries *)
      { features; recording = Some canonical.o_recording; finding }
