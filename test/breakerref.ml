(* Reference models of the consecutive-failure breaker as it was written
   twice before [Wasp.Breaker]: the gateway's per-function breaker and
   the supervisor's per-key quarantine streak, each with the virtual
   clock passed in as [now]. Answers use [Wasp.Breaker]'s vocabulary so
   test_supervisor can compare them on random scripts: an admission is
   a [Probe] where the old code moved the breaker out of its cooldown
   (and published its gauge), and a failure that opened the breaker
   answers the failure count the old code reported. *)

module Gateway = struct
  type t = {
    threshold : int;
    cooldown : int64;
    mutable state : Wasp.Breaker.state;
    mutable failures : int;  (* consecutive, while Closed *)
    mutable opened_at : int64;
  }

  let create ~threshold ~cooldown =
    { threshold; cooldown; state = Closed; failures = 0; opened_at = 0L }

  let cooled t ~now = Int64.compare (Int64.sub now t.opened_at) t.cooldown >= 0

  (* [Gateway.breaker_state] *)
  let state t ~now : Wasp.Breaker.state =
    match t.state with Open when cooled t ~now -> Half_open | s -> s

  (* [Gateway.invoke]: Open -> Half_open once the cooldown has elapsed;
     the admitted request is the probe. *)
  let admit t ~now : Wasp.Breaker.admission =
    match t.state with
    | Open when cooled t ~now ->
        t.state <- Half_open;
        Probe
    | Open -> Rejected
    | Closed | Half_open -> Admitted

  let succeed t =
    t.failures <- 0;
    if t.state <> Closed then t.state <- Closed

  let fail t ~now =
    match t.state with
    | Half_open ->
        (* the probe failed: straight back to Open, cooldown restarts *)
        t.state <- Open;
        t.opened_at <- now;
        Some t.failures
    | Closed ->
        t.failures <- t.failures + 1;
        if t.failures >= t.threshold then begin
          t.state <- Open;
          t.opened_at <- now;
          Some t.failures
        end
        else None
    | Open -> None
end

module Quarantine = struct
  type t = {
    threshold : int;
    cooldown : int64;
    mutable failures : int;
    mutable opened_at : int64 option;
  }

  let create ~threshold ~cooldown = { threshold; cooldown; failures = 0; opened_at = None }

  let in_quarantine t ~now =
    match t.opened_at with
    | Some at -> Int64.compare (Int64.sub now at) t.cooldown < 0
    | None -> false

  (* [Supervisor.run]: refused while quarantined. An expired quarantine
     admits a probe, half-open: the streak stays one short of the
     threshold, so the first failure re-quarantines while a success
     clears it. *)
  let admit t ~now : Wasp.Breaker.admission =
    if in_quarantine t ~now then Rejected
    else if Option.is_some t.opened_at then begin
      t.opened_at <- None;
      t.failures <- max 0 (t.threshold - 1);
      Probe
    end
    else Admitted

  (* [note_success] *)
  let succeed t =
    t.failures <- 0;
    t.opened_at <- None

  let fail t ~now =
    t.failures <- t.failures + 1;
    if t.failures >= t.threshold then begin
      t.opened_at <- Some now;
      Some t.failures
    end
    else None
end
