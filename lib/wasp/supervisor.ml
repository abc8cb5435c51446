(* Virtine supervision: bounded retries with deterministic backoff, fuel
   watchdogs, and quarantine of repeatedly-failing images. Every decision
   is a pure function of (config, attempt number, virtual clock), so a
   supervised chaos run replays to the identical retry schedule. *)

type error_class = Fault | Timeout | Policy | Overload

let error_class_to_string = function
  | Fault -> "fault"
  | Timeout -> "timeout"
  | Policy -> "policy"
  | Overload -> "overload"

type config = {
  max_retries : int;
  backoff_base : int;
  backoff_factor : int;
  attempt_fuel : int option;
  fail_on_denied : bool;
  quarantine_threshold : int;
  quarantine_cooldown : int64;
}

let default_config =
  {
    max_retries = 3;
    backoff_base = 10_000;
    backoff_factor = 2;
    attempt_fuel = None;
    fail_on_denied = false;
    quarantine_threshold = 3;
    quarantine_cooldown = 10_000_000L;
  }

type stats = {
  supervised : int;
  succeeded : int;
  failed : int;
  retries : int;
  backoff_cycles : int64;
  quarantine_rejections : int;
}

type outcome = {
  result : (Runtime.result, error_class * string) Stdlib.result;
  attempts : int;
  retries : int;
  backoff_cycles : int;
  cycles : int64;
}

type t = {
  rt : Runtime.t;
  config : config;
  mutable successes : int;
  mutable backoff : int64;
  breakers : (string, Breaker.t) Hashtbl.t;  (* per key: quarantine is an open breaker *)
  mutable slo : Telemetry.Slo.t option;
}

let create ?(config = default_config) rt =
  if config.max_retries < 0 then invalid_arg "Supervisor.create: negative max_retries";
  if config.backoff_base < 0 then invalid_arg "Supervisor.create: negative backoff_base";
  if config.backoff_factor < 1 then
    invalid_arg "Supervisor.create: backoff_factor must be >= 1";
  if config.quarantine_threshold < 1 then
    invalid_arg "Supervisor.create: quarantine_threshold must be >= 1";
  {
    rt;
    config;
    successes = 0;
    backoff = 0L;
    breakers = Hashtbl.create 8;
    slo = None;
  }

let runtime t = t.rt

let stats t =
  let n name = Kvmsim.Kvm.tally (Runtime.kvm t.rt) name in
  {
    supervised = n "wasp_supervised_total";
    succeeded = t.successes;
    failed = n "wasp_supervised_failures_total";
    retries = n "wasp_retries_total";
    backoff_cycles = t.backoff;
    quarantine_rejections = n "wasp_quarantine_rejections_total";
  }

let set_slo t slo = t.slo <- slo

(* Quarantine rejections count as bad availability: from the caller's
   side a rejected request failed, however cheap the rejection was. *)
let slo_record t ~good =
  match t.slo with None -> () | Some s -> Telemetry.Slo.record s ~good

let now t = Cycles.Clock.now (Runtime.clock t.rt)

let breaker_for t key =
  match Hashtbl.find_opt t.breakers key with
  | Some b -> b
  | None ->
      let b =
        Breaker.create ~threshold:t.config.quarantine_threshold
          ~cooldown:t.config.quarantine_cooldown
      in
      Hashtbl.replace t.breakers key b;
      b

let in_quarantine t b = Breaker.state b ~now:(now t) = Breaker.Open

let quarantined_count t =
  Hashtbl.fold (fun _ b acc -> if in_quarantine t b then acc + 1 else acc) t.breakers 0

let note_quarantine_gauge t =
  let sys = Runtime.kvm t.rt in
  if Kvmsim.Kvm.hub_attached sys then
    Kvmsim.Kvm.gauge sys "wasp_quarantined_images" (float_of_int (quarantined_count t))

let quarantined t ~key =
  match Hashtbl.find_opt t.breakers key with
  | None -> false
  | Some b -> in_quarantine t b

let release_quarantine t ~key =
  Option.iter Breaker.succeed (Hashtbl.find_opt t.breakers key);
  note_quarantine_gauge t

(* One invocation failed outright (attempts exhausted, or a terminal
   class). Past the threshold the image is quarantined until the
   cooldown elapses on the virtual clock. *)
let note_failure t key class_ =
  let sys = Runtime.kvm t.rt and help = "supervised invocations failed" in
  Kvmsim.Kvm.count sys ~help "wasp_supervised_failures_total";
  Kvmsim.Kvm.count sys ~help
    ~labels:[ ("class", error_class_to_string class_) ]
    "wasp_supervised_failures_total";
  let b = breaker_for t key in
  if Breaker.fail b ~now:(now t) then begin
    let failures = Breaker.failures b in
    if Kvmsim.Kvm.hub_attached sys then
      Kvmsim.Kvm.instant sys
        ~args:[ ("key", key); ("failures", string_of_int failures) ]
        "supervisor_quarantine";
    (* vtrace supervisor sites carry the supervision key as [fn] *)
    Kvmsim.Kvm.fire sys ~fn:key ~reason:"enter" ~cycles:0 ~nr:failures "sup_quarantine"
  end;
  note_quarantine_gauge t

let note_success t key =
  t.successes <- t.successes + 1;
  Breaker.succeed (breaker_for t key);
  note_quarantine_gauge t

(* What went wrong with one attempt, if anything. *)
type attempt_verdict =
  | Succeeded of Runtime.result
  | Retryable of error_class * string * Runtime.result option
  | Terminal of error_class * string * Runtime.result option

let classify t (r : Runtime.result) =
  match r.Runtime.outcome with
  | Runtime.Faulted f ->
      Retryable
        (Fault, Format.asprintf "%a" Vm.Cpu.pp_exit (Vm.Cpu.Fault f), Some r)
  | Runtime.Fuel_exhausted -> Retryable (Timeout, "fuel watchdog expired", Some r)
  | Runtime.Exited _ when t.config.fail_on_denied && r.Runtime.denied > 0 ->
      Terminal
        ( Policy,
          Printf.sprintf "%d hypercall(s) denied by policy" r.Runtime.denied,
          Some r )
  | Runtime.Exited _ -> Succeeded r

let backoff_for t ~retry =
  (* retry = 1 for the first retry: base, then base*factor, ... *)
  let rec go acc k = if k <= 1 then acc else go (acc * t.config.backoff_factor) (k - 1) in
  go t.config.backoff_base retry

let run t (image : Image.t) ?policy ?args ?snapshot_key () =
  let key = image.Image.name in
  let sys = Runtime.kvm t.rt in
  Kvmsim.Kvm.count sys "wasp_supervised_total";
  (* The whole supervised invocation is one span; each attempt (backoff
     included, so attempts tile the parent exactly) is a sibling child
     span — a retried request reads as a fan of attempts in the trace. *)
  let hub = Kvmsim.Kvm.hub_attached sys in
  (* the span and [cycles] are read on the core the invocation runs on *)
  Runtime.on_home_core t.rt ~snapshot_key;
  Kvmsim.Kvm.span sys ~args:(if hub then [ ("key", key) ] else []) "supervised" @@ fun () ->
  let start = now t in
  match Breaker.admit (breaker_for t key) ~now:start with
  | Rejected ->
      Kvmsim.Kvm.count sys "wasp_quarantine_rejections_total";
      Kvmsim.Kvm.fire sys ~fn:key ~reason:"reject" ~cycles:0 ~nr:0 "sup_quarantine";
      slo_record t ~good:false;
      {
        result = Error (Overload, Printf.sprintf "image %S is quarantined" key);
        attempts = 0;
        retries = 0;
        backoff_cycles = 0;
        cycles = 0L;
      }
  | (Admitted | Probe) as admission ->
      (* An expired quarantine admits this invocation as a probe: its
         failure re-quarantines the image, its success clears the streak. *)
      if admission = Probe then note_quarantine_gauge t;
      let max_attempts = t.config.max_retries + 1 in
      let backoff_total = ref 0 in
      let rec attempt k =
        (* the attempt span closes before any recursion, so attempt k+1 is
           its sibling, not its child *)
        let attempt_start = now t in
        let verdict =
          let span_args = if hub then [ ("attempt", string_of_int k) ] else [] in
          Kvmsim.Kvm.span sys ~args:span_args "attempt" @@ fun () ->
          if k > 1 then begin
            let d = backoff_for t ~retry:(k - 1) in
            Cycles.Clock.advance_int (Runtime.clock t.rt) d;
            backoff_total := !backoff_total + d;
            t.backoff <- Int64.add t.backoff (Int64.of_int d);
            Kvmsim.Kvm.count sys "wasp_retries_total";
            if hub then
              Kvmsim.Kvm.instant sys
                ~args:[ ("attempt", string_of_int k); ("backoff", string_of_int d) ]
                "supervisor_retry";
            Kvmsim.Kvm.fire sys ~fn:key ~reason:"retry" ~cycles:d ~nr:k "sup_backoff"
          end;
          match
            Runtime.run t.rt image ?policy ?args ?snapshot_key
              ?fuel:t.config.attempt_fuel ()
          with
          | r -> classify t r
          | exception Kvmsim.Kvm.Injected_failure site ->
              Retryable (Fault, Printf.sprintf "injected failure at %s" site, None)
        in
        Kvmsim.Kvm.fire sys ~fn:key
          ~reason:
            (match verdict with
            | Succeeded _ -> "ok"
            | Retryable (c, _, _) | Terminal (c, _, _) -> error_class_to_string c)
          ~cycles:(Int64.to_int (Int64.sub (now t) attempt_start))
          ~nr:k "sup_attempt";
        match verdict with
        | Succeeded r ->
            note_success t key;
            (Ok r, k)
        | Terminal (class_, detail, _) ->
            note_failure t key class_;
            (Error (class_, detail), k)
        | Retryable (class_, detail, _) ->
            if k < max_attempts then attempt (k + 1)
            else begin
              note_failure t key class_;
              ( Error
                  ( class_,
                    Printf.sprintf "%s (after %d attempts)" detail max_attempts ),
                k )
            end
      in
      let result, attempts = attempt 1 in
      slo_record t ~good:(match result with Ok _ -> true | Error _ -> false);
      {
        result;
        attempts;
        retries = attempts - 1;
        backoff_cycles = !backoff_total;
        cycles = Cycles.Clock.elapsed_since (Runtime.clock t.rt) start;
      }
