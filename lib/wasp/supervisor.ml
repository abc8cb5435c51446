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

(* [opened_at] stamps the quarantine's start; it ends once the cooldown
   has elapsed since then. Stamping the end instead would overflow for a
   cooldown near [Int64.max_int]. *)
type streak = { mutable failures : int; mutable opened_at : int64 option }

type t = {
  rt : Runtime.t;
  config : config;
  mutable successes : int;
  mutable backoff : int64;
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
    successes = 0;
    backoff = 0L;
    streaks = Hashtbl.create 8;
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

let streak_for t key =
  match Hashtbl.find_opt t.streaks key with
  | Some s -> s
  | None ->
      let s = { failures = 0; opened_at = None } in
      Hashtbl.replace t.streaks key s;
      s

let in_quarantine t s =
  match s.opened_at with
  | Some at -> Int64.compare (Int64.sub (now t) at) t.config.quarantine_cooldown < 0
  | None -> false

let quarantined_count t =
  Hashtbl.fold (fun _ s acc -> if in_quarantine t s then acc + 1 else acc) t.streaks 0

let note_quarantine_gauge t =
  Kvmsim.Kvm.gauge (Runtime.kvm t.rt) "wasp_quarantined_images"
    (float_of_int (quarantined_count t))

let quarantined t ~key =
  match Hashtbl.find_opt t.streaks key with
  | None -> false
  | Some s -> in_quarantine t s

let release_quarantine t ~key =
  (match Hashtbl.find_opt t.streaks key with
  | Some s ->
      s.failures <- 0;
      s.opened_at <- None
  | None -> ());
  note_quarantine_gauge t

(* One invocation failed outright (attempts exhausted, or a terminal
   class). Grow the image's failure streak; past the threshold the image
   is quarantined until the cooldown elapses on the virtual clock. *)
let note_failure t key class_ =
  let sys = Runtime.kvm t.rt and help = "supervised invocations failed" in
  Kvmsim.Kvm.count sys ~help "wasp_supervised_failures_total";
  Kvmsim.Kvm.count sys ~help
    ~labels:[ ("class", error_class_to_string class_) ]
    "wasp_supervised_failures_total";
  let s = streak_for t key in
  s.failures <- s.failures + 1;
  if s.failures >= t.config.quarantine_threshold then begin
    s.opened_at <- Some (now t);
    Kvmsim.Kvm.instant sys
      ~args:[ ("key", key); ("failures", string_of_int s.failures) ]
      "supervisor_quarantine";
    (* vtrace supervisor sites carry the supervision key as [fn] *)
    Kvmsim.Kvm.fire sys ~fn:key ~reason:"enter" ~cycles:0L ~nr:(Int64.of_int s.failures)
      "sup_quarantine"
  end;
  note_quarantine_gauge t

let note_success t key =
  t.successes <- t.successes + 1;
  let s = streak_for t key in
  s.failures <- 0;
  s.opened_at <- None;
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
  let sys = Runtime.kvm t.rt in
  Kvmsim.Kvm.count sys "wasp_supervised_total";
  (* The whole supervised invocation is one span; each attempt (backoff
     included, so attempts tile the parent exactly) is a sibling child
     span — a retried request reads as a fan of attempts in the trace. *)
  Kvmsim.Kvm.span sys ~args:[ ("key", key) ] "supervised" @@ fun () ->
  let start = now t in
  if quarantined t ~key then begin
    Kvmsim.Kvm.count sys "wasp_quarantine_rejections_total";
    Kvmsim.Kvm.fire sys ~fn:key ~reason:"reject" ~cycles:0L ~nr:0L "sup_quarantine";
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
    if Option.is_some s.opened_at then begin
      s.opened_at <- None;
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
        Kvmsim.Kvm.span sys ~args:[ ("attempt", string_of_int k) ] "attempt" @@ fun () ->
        if k > 1 then begin
          let d = backoff_for t ~retry:(k - 1) in
          Cycles.Clock.advance_int (Runtime.clock t.rt) d;
          backoff_total := !backoff_total + d;
          t.backoff <- Int64.add t.backoff (Int64.of_int d);
          Kvmsim.Kvm.count sys "wasp_retries_total";
          Kvmsim.Kvm.instant sys
            ~args:[ ("attempt", string_of_int k); ("backoff", string_of_int d) ]
            "supervisor_retry";
          Kvmsim.Kvm.fire sys ~fn:key ~reason:"retry" ~cycles:(Int64.of_int d)
            ~nr:(Int64.of_int k) "sup_backoff"
        end;
        match
          Runtime.run t.rt image ?policy ?input ?args ?snapshot_key
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
        ~cycles:(Int64.sub (now t) attempt_start)
        ~nr:(Int64.of_int k) "sup_attempt";
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
