(* Multi-window, multi-burn-rate SLO evaluation on the virtual clock.

   An objective declares what fraction of events must be good over a
   rolling period; burn rate is the ratio of the observed bad fraction
   to the error budget (1 - target). A burn rate of 1.0 spends the
   budget exactly over the period; the classic alerting rules page when
   a large fraction of the budget burns in a small window, confirmed by
   a short window so alerts clear promptly once the storm passes. All
   windows are virtual-time cycle spans, so a chaos run alerts
   identically on every replay. *)

type rule = {
  rule_name : string;
  long_window : int64;
  short_window : int64;
  burn_threshold : float;
}

type objective = Availability | Latency_under of int64

(* One sliding window: the events stamped at or after [newest - span],
   counted. They sit in the event buffer at [first, tail). [span] is the
   window clamped to [-1, max_int]: stamps come from a non-negative int
   clock, so a wider window already holds every event, and any negative
   one holds none. *)
type window = {
  span : int;
  mutable first : int;
  mutable good : int;
  mutable bad : int;
}

type rule_state = {
  rule : rule;
  long : window;
  short : window;
  mutable active : bool;
  mutable peak_burn : float;
  (* series handles are looked up at first use, so registration order,
     and with it the exposition, is the order events reach them *)
  burn_gauge : Metrics.gauge Lazy.t;
  active_gauge : Metrics.gauge Lazy.t;
  fired_total : Metrics.counter Lazy.t;
  cleared_total : Metrics.counter Lazy.t;
}

type t = {
  hub : Hub.t;
  name : string;
  target : float;
  objective : objective;
  rules : rule_state list;
  windows : window array;  (* one per distinct span, widest first *)
  (* Events of the widest window, sorted by stamp, at [windows.(0).first,
     tail). Per-core clocks can stamp an event behind [newest]; it is
     inserted in order, shifting only the events stamped after it. *)
  mutable stamps : int array;
  mutable goods : Bytes.t;
  mutable tail : int;
  mutable newest : int;
  mutable fired_n : int;
  mutable cleared_n : int;
  events_total : Metrics.counter Lazy.t;
  bad_total : Metrics.counter Lazy.t;
}

(* The SRE-book pair: the fast rule fires when ~5% of the budget burns
   in period/100 (burn 5x), the slow rule when ~10% burns in period/20
   (burn 2x). Each is confirmed by a short window 1/12 its size. *)
let default_rules ~period =
  let div d =
    let w = Int64.div period (Int64.of_int d) in
    if Int64.compare w 1L < 0 then 1L else w
  in
  [
    { rule_name = "fast"; long_window = div 100; short_window = div 1200; burn_threshold = 5.0 };
    { rule_name = "slow"; long_window = div 20; short_window = div 240; burn_threshold = 2.0 };
  ]

let create ~hub ~name ?(objective = Availability) ~target ~period () =
  if not (target > 0.0 && target < 1.0) then
    invalid_arg "Slo.create: target must be inside (0, 1)";
  if Int64.compare period 1L < 0 then invalid_arg "Slo.create: period must be >= 1";
  let rules = default_rules ~period in
  let m = Hub.metrics hub in
  let span w =
    if Int64.compare w (Int64.of_int max_int) > 0 then max_int
    else if Int64.compare w (-1L) < 0 then -1
    else Int64.to_int w
  in
  let spans =
    List.sort_uniq (fun a b -> compare b a)
      (List.concat_map (fun r -> [ span r.long_window; span r.short_window ]) rules)
  in
  let windows =
    Array.of_list (List.map (fun s -> { span = s; first = 0; good = 0; bad = 0 }) spans)
  in
  let window w = List.find (fun win -> win.span = span w) (Array.to_list windows) in
  let gauge labels name = lazy (Metrics.gauge m ~labels name)
  and counter labels name = lazy (Metrics.counter m ~labels name) in
  let rule_state r =
    let labels = [ ("slo", name); ("rule", r.rule_name) ] in
    {
      rule = r;
      long = window r.long_window;
      short = window r.short_window;
      active = false;
      peak_burn = 0.0;
      burn_gauge = gauge labels "slo_burn_rate";
      active_gauge = gauge labels "slo_alert_active";
      fired_total = counter labels "slo_alerts_fired_total";
      cleared_total = counter labels "slo_alerts_cleared_total";
    }
  in
  let t =
    {
      hub;
      name;
      target;
      objective;
      rules = List.map rule_state rules;
      windows;
      stamps = Array.make 64 0;
      goods = Bytes.make 64 '\000';
      tail = 0;
      newest = 0;
      fired_n = 0;
      cleared_n = 0;
      events_total = counter [ ("slo", name) ] "slo_events_total";
      bad_total = counter [ ("slo", name) ] "slo_bad_events_total";
    }
  in
  Metrics.set
    (Metrics.gauge m ~help:"declared SLO target" ~labels:[ ("slo", name) ] "slo_objective")
    target;
  t

let error_budget t = 1.0 -. t.target

let burn t w =
  let total = w.good + w.bad in
  if total = 0 then 0.0 else float_of_int w.bad /. float_of_int total /. error_budget t

(* Advance every window's start past the events [newest] has left behind. *)
let slide t =
  Array.iter
    (fun w ->
      let cutoff = t.newest - w.span in
      while w.first < t.tail && t.stamps.(w.first) < cutoff do
        if Bytes.unsafe_get t.goods w.first = '\001' then w.good <- w.good - 1
        else w.bad <- w.bad - 1;
        w.first <- w.first + 1
      done)
    t.windows

(* Make room at [tail]: slide the live events down when they fill at most
   half the buffer, otherwise double it. Amortised O(1) per event. *)
let make_room t =
  let head = t.windows.(0).first in
  let live = t.tail - head in
  let cap = Array.length t.stamps in
  let stamps, goods =
    if 2 * live <= cap then (t.stamps, t.goods)
    else (Array.make (2 * cap) 0, Bytes.make (2 * cap) '\000')
  in
  Array.blit t.stamps head stamps 0 live;
  Bytes.blit t.goods head goods 0 live;
  t.stamps <- stamps;
  t.goods <- goods;
  t.tail <- live;
  Array.iter (fun w -> w.first <- w.first - head) t.windows

(* An event stamped before the widest window's start is in no window now
   and never will be, since windows only move forward; it is not kept. *)
let insert t stamp good =
  if stamp >= t.newest - t.windows.(0).span then begin
    if t.tail = Array.length t.stamps then make_room t;
    let head = t.windows.(0).first in
    let p = ref t.tail in
    while !p > head && t.stamps.(!p - 1) > stamp do
      decr p
    done;
    let p = !p in
    Array.blit t.stamps p t.stamps (p + 1) (t.tail - p);
    Bytes.blit t.goods p t.goods (p + 1) (t.tail - p);
    t.stamps.(p) <- stamp;
    Bytes.unsafe_set t.goods p (if good then '\001' else '\000');
    t.tail <- t.tail + 1;
    (* the event lands inside a window exactly when it lands at or after
       that window's first event; otherwise that first event moved up *)
    Array.iter
      (fun w ->
        if stamp < t.newest - w.span then w.first <- w.first + 1
        else if good then w.good <- w.good + 1
        else w.bad <- w.bad + 1)
      t.windows
  end

let evaluate t =
  List.iter
    (fun rs ->
      let bl = burn t rs.long in
      let bs = burn t rs.short in
      if bl > rs.peak_burn then rs.peak_burn <- bl;
      Metrics.set (Lazy.force rs.burn_gauge) bl;
      let firing = bl >= rs.rule.burn_threshold && bs >= rs.rule.burn_threshold in
      let alert state =
        Hub.instant t.hub
          ~args:
            [
              ("slo", t.name);
              ("rule", rs.rule.rule_name);
              ("state", state);
              ("burn_long", Printf.sprintf "%.2f" bl);
              ("burn_short", Printf.sprintf "%.2f" bs);
            ]
          "slo_alert"
      in
      if firing && not rs.active then begin
        rs.active <- true;
        t.fired_n <- t.fired_n + 1;
        Metrics.incr (Lazy.force rs.fired_total);
        alert "firing"
      end
      else if (not firing) && rs.active then begin
        rs.active <- false;
        t.cleared_n <- t.cleared_n + 1;
        Metrics.incr (Lazy.force rs.cleared_total);
        alert "cleared"
      end;
      Metrics.set (Lazy.force rs.active_gauge) (if rs.active then 1.0 else 0.0))
    t.rules

let record t ~good =
  let stamp = Int64.to_int (Cycles.Clock.now (Hub.clock t.hub)) in
  if stamp > t.newest then begin
    t.newest <- stamp;
    slide t
  end;
  insert t stamp good;
  Metrics.incr (Lazy.force t.events_total);
  if not good then Metrics.incr (Lazy.force t.bad_total);
  evaluate t

let record_latency t cycles =
  match t.objective with
  | Latency_under threshold -> record t ~good:(Int64.compare cycles threshold <= 0)
  | Availability ->
      invalid_arg "Slo.record_latency: objective is availability, use record"

let alerting t = List.exists (fun rs -> rs.active) t.rules

let burn_rate t ~rule =
  match List.find_opt (fun rs -> rs.rule.rule_name = rule) t.rules with
  | None -> invalid_arg ("Slo.burn_rate: unknown rule " ^ rule)
  | Some rs -> (burn t rs.long, burn t rs.short)

let peak_burn t =
  List.fold_left (fun acc rs -> Float.max acc rs.peak_burn) 0.0 t.rules

let alerts_fired t = t.fired_n
let alerts_cleared t = t.cleared_n