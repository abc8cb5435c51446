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
  mutable supervised : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable retries : int;
  mutable backoff_cycles : int64;
  mutable quarantine_rejections : int;
}

type outcome = {
  result : (Runtime.result, error_class * string) Stdlib.result;
  attempts : int;
  retries : int;
  backoff_cycles : int;
  cycles : int64;
}

type streak = { mutable failures : int; mutable until : int64 }

type t = {
  rt : Runtime.t;
  config : config;
  stats : stats;
  streaks : (string, streak) Hashtbl.t;
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
    stats =
      {
        supervised = 0;
        succeeded = 0;
        failed = 0;
        retries = 0;
        backoff_cycles = 0L;
        quarantine_rejections = 0;
      };
    streaks = Hashtbl.create 8;
    slo = None;
  }

let runtime t = t.rt
let config t = t.config
let stats t = t.stats

let set_slo t slo = t.slo <- slo
let slo t = t.slo

(* Quarantine rejections count as bad availability: from the caller's
   side a rejected request failed, however cheap the rejection was. *)
let slo_record t ~good =
  match t.slo with None -> () | Some s -> Telemetry.Slo.record s ~good

let now t = Cycles.Clock.now (Runtime.clock t.rt)

let tincr t ?by name =
  match Runtime.telemetry t.rt with
  | None -> ()
  | Some h -> Telemetry.Hub.incr h ?by name

let tincr_labeled t name ~help ~label =
  match Runtime.telemetry t.rt with
  | None -> ()
  | Some h ->
      let m = Telemetry.Hub.metrics h in
      Telemetry.Metrics.incr (Telemetry.Metrics.counter m ~help name);
      Telemetry.Metrics.incr (Telemetry.Metrics.counter m ~help ~labels:[ label ] name)

let tinstant t ?args name =
  match Runtime.telemetry t.rt with
  | None -> ()
  | Some h -> Telemetry.Hub.instant h ?args name

(* vtrace supervisor sites; [fn] carries the supervision key. *)
let fire t site ~fn ~reason ~cycles ~nr =
  ignore
    (Kvmsim.Kvm.fire (Runtime.kvm t.rt) ~fn ~reason ~cycles ~nr:(Int64.of_int nr) site)

let streak_for t key =
  match Hashtbl.find_opt t.streaks key with
  | Some s -> s
  | None ->
      let s = { failures = 0; until = 0L } in
      Hashtbl.replace t.streaks key s;
      s

let quarantined_count t =
  let n = now t in
  Hashtbl.fold (fun _ s acc -> if Int64.compare s.until n > 0 then acc + 1 else acc)
    t.streaks 0

let note_quarantine_gauge t =
  match Runtime.telemetry t.rt with
  | None -> ()
  | Some h ->
      Telemetry.Hub.set_gauge h "wasp_quarantined_images"
        (float_of_int (quarantined_count t))

let quarantined t ~key =
  match Hashtbl.find_opt t.streaks key with
  | None -> false
  | Some s -> Int64.compare s.until (now t) > 0

let release_quarantine t ~key =
  (match Hashtbl.find_opt t.streaks key with
  | Some s ->
      s.failures <- 0;
      s.until <- 0L
  | None -> ());
  note_quarantine_gauge t

(* One invocation failed outright (attempts exhausted, or a terminal
   class). Grow the image's failure streak; past the threshold the image
   is quarantined until the cooldown elapses on the virtual clock. *)
let note_failure t key class_ =
  t.stats.failed <- t.stats.failed + 1;
  tincr_labeled t "wasp_supervised_failures_total" ~help:"supervised invocations failed"
    ~label:("class", error_class_to_string class_);
  let s = streak_for t key in
  s.failures <- s.failures + 1;
  if s.failures >= t.config.quarantine_threshold then begin
    s.until <- Int64.add (now t) t.config.quarantine_cooldown;
    tinstant t
      ~args:[ ("key", key); ("failures", string_of_int s.failures) ]
      "supervisor_quarantine";
    fire t "sup_quarantine" ~fn:key ~reason:"enter" ~cycles:0L ~nr:s.failures
  end;
  note_quarantine_gauge t

let note_success t key =
  t.stats.succeeded <- t.stats.succeeded + 1;
  let s = streak_for t key in
  s.failures <- 0;
  s.until <- 0L;
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

let run t (image : Image.t) ?policy ?input ?args ?snapshot_key ?key () =
  let key = match key with Some k -> k | None -> image.Image.name in
  t.stats.supervised <- t.stats.supervised + 1;
  tincr t "wasp_supervised_total";
  let tspan ?(sargs = []) name f =
    match Runtime.telemetry t.rt with
    | None -> f ()
    | Some h -> Telemetry.Hub.with_span h ~args:sargs name f
  in
  (* The whole supervised invocation is one span; each attempt (backoff
     included, so attempts tile the parent exactly) is a sibling child
     span — a retried request reads as a fan of attempts in the trace. *)
  tspan ~sargs:[ ("key", key) ] "supervised" @@ fun () ->
  let start = now t in
  if quarantined t ~key then begin
    t.stats.quarantine_rejections <- t.stats.quarantine_rejections + 1;
    tincr t "wasp_quarantine_rejections_total";
    fire t "sup_quarantine" ~fn:key ~reason:"reject" ~cycles:0L ~nr:0;
    slo_record t ~good:false;
    {
      result = Error (Overload, Printf.sprintf "image %S is quarantined" key);
      attempts = 0;
      retries = 0;
      backoff_cycles = 0;
      cycles = 0L;
    }
  end
  else begin
    (* An expired quarantine admits a probe, half-open: the streak stays
       one short of the threshold, so the first failure re-quarantines
       while a success clears it. *)
    let s = streak_for t key in
    if Int64.compare s.until 0L > 0 then begin
      s.until <- 0L;
      s.failures <- max 0 (t.config.quarantine_threshold - 1);
      note_quarantine_gauge t
    end;
    let max_attempts = t.config.max_retries + 1 in
    let backoff_total = ref 0 in
    let rec attempt k =
      (* the attempt span closes before any recursion, so attempt k+1 is
         its sibling, not its child *)
      let attempt_start = now t in
      let verdict =
        tspan ~sargs:[ ("attempt", string_of_int k) ] "attempt" @@ fun () ->
        if k > 1 then begin
          let d = backoff_for t ~retry:(k - 1) in
          Cycles.Clock.advance_int (Runtime.clock t.rt) d;
          backoff_total := !backoff_total + d;
          t.stats.retries <- t.stats.retries + 1;
          t.stats.backoff_cycles <- Int64.add t.stats.backoff_cycles (Int64.of_int d);
          tincr t "wasp_retries_total";
          tinstant t
            ~args:[ ("attempt", string_of_int k); ("backoff", string_of_int d) ]
            "supervisor_retry";
          fire t "sup_backoff" ~fn:key ~reason:"retry" ~cycles:(Int64.of_int d)
            ~nr:k
        end;
        match
          Runtime.run t.rt image ?policy ?input ?args ?snapshot_key
            ?fuel:t.config.attempt_fuel ()
        with
        | r -> classify t r
        | exception Kvmsim.Kvm.Injected_failure site ->
            Retryable (Fault, Printf.sprintf "injected failure at %s" site, None)
      in
      fire t "sup_attempt" ~fn:key
        ~reason:
          (match verdict with
          | Succeeded _ -> "ok"
          | Retryable (c, _, _) | Terminal (c, _, _) -> error_class_to_string c)
        ~cycles:(Int64.sub (now t) attempt_start)
        ~nr:k;
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
  end
