type state = Closed | Open | Half_open

type t = {
  threshold : int;
  cooldown : int64;
  mutable state : state;
  mutable failures : int;  (* consecutive, counted while Closed *)
  mutable opened_at : int64;
}

let create ~threshold ~cooldown =
  { threshold; cooldown; state = Closed; failures = 0; opened_at = 0L }

(* Measured from the opening stamp: stamping the cooldown's end instead
   would overflow for a cooldown near [Int64.max_int]. *)
let cooled t ~now = Int64.compare (Int64.sub now t.opened_at) t.cooldown >= 0

let state t ~now = match t.state with Open when cooled t ~now -> Half_open | s -> s

type admission = Admitted | Probe | Rejected

let admit t ~now =
  match t.state with
  | Open when cooled t ~now ->
      t.state <- Half_open;
      Probe
  | Open -> Rejected
  | Closed | Half_open -> Admitted

let succeed t =
  t.failures <- 0;
  t.state <- Closed

let fail t ~now =
  let opens =
    match t.state with
    | Half_open -> true
    | Closed ->
        t.failures <- t.failures + 1;
        t.failures >= t.threshold
    | Open -> false
  in
  if opens then begin
    t.state <- Open;
    t.opened_at <- now
  end;
  opens

let failures t = t.failures
