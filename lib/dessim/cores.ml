type core_stats = {
  mutable executed : int;
  mutable stolen : int;
  mutable busy_cycles : int64;
  mutable idle_cycles : int64;
  mutable reclaim_cycles : int64;
}

type t = {
  clocks : Cycles.Clock.t array;
  queues : (core:int -> unit) Heap.t array;  (* tasks by (release time, submission) *)
  per_core : core_stats array;
  switch : (int -> unit) option;
  idle : (core:int -> budget:int -> int) option;
  mutable next_seq : int;
  mutable rr : int;       (* round-robin cursor for submits *)
  mutable submitted : int;
  mutable probe : (core:int -> reason:string -> cycles:int -> nr:int -> string -> unit) option;
}

let create ?switch ?idle ?probe clocks =
  let n = Array.length clocks in
  if n < 1 then invalid_arg "Cores.create: need at least one clock";
  {
    clocks;
    queues = Array.init n (fun _ -> Heap.create ());
    per_core =
      Array.init n (fun _ ->
          {
            executed = 0;
            stolen = 0;
            busy_cycles = 0L;
            idle_cycles = 0L;
            reclaim_cycles = 0L;
          });
    switch;
    idle;
    next_seq = 0;
    rr = 0;
    submitted = 0;
    probe;
  }

let set_probes t e =
  t.probe <-
    Option.map
      (fun e ~core ~reason ~cycles ~nr site ->
        if Vtrace.Engine.wants e site then
          let cycles = Int64.of_int cycles and nr = Int64.of_int nr in
          let ctx = { Vtrace.Ctx.site; core; trace = None; fn = ""; pc = 0; reason; cycles; fuel = 0; nr } in
          ignore (Vtrace.Engine.fire e ctx))
      e

(* vtrace scheduler sites; fired outside the clocks' charged windows so
   they never perturb the schedule. *)
let fire t site ~core ~reason ~cycles ~nr =
  match t.probe with None -> () | Some f -> f ~core ~reason ~cycles ~nr site

let cores t = Array.length t.clocks
let core_stats t = t.per_core
let submitted t = t.submitted
let steals t = Array.fold_left (fun acc s -> acc + s.stolen) 0 t.per_core
let executed t = Array.fold_left (fun acc s -> acc + s.executed) 0 t.per_core
let pending t = Array.fold_left (fun acc q -> acc + Heap.size q) 0 t.queues

let utilization t ~core =
  let s = t.per_core.(core) in
  let busy = Int64.to_float s.busy_cycles and idle = Int64.to_float s.idle_cycles in
  if busy +. idle <= 0.0 then 0.0 else busy /. (busy +. idle)

let submit t ?(at = 0L) fn =
  if Int64.compare at 0L < 0 then invalid_arg "Cores.submit: negative time";
  let core = t.rr in
  t.rr <- (t.rr + 1) mod cores t;
  Heap.push t.queues.(core) { at; seq = t.next_seq; value = fn };
  t.next_seq <- t.next_seq + 1;
  t.submitted <- t.submitted + 1

(* The task core [c] would run next: its own queue head, or — only when
   the local queue is empty — the head of the longest other queue. *)
let candidate t c =
  match Heap.peek t.queues.(c) with
  | Some task -> Some (task, c)
  | None -> (
      let victim = ref (-1) and best = ref 0 in
      Array.iteri
        (fun d q ->
          if d <> c && Heap.size q > !best then begin
            best := Heap.size q;
            victim := d
          end)
        t.queues;
      if !victim < 0 then None
      else
        match Heap.peek t.queues.(!victim) with
        | Some task -> Some (task, !victim)
        | None -> None)

(* One scheduling decision: the core that can start work earliest (its
   clock, or the task release time if later; ties to the lower core id)
   claims its candidate task, spends any wait as accounted idle time —
   offered to the [idle] hook first — and runs the task on its clock.
   Returns [false] when no core has any work. *)
let step t =
  let best = ref None in
  for c = 0 to cores t - 1 do
    match candidate t c with
    | None -> ()
    | Some (task, src) ->
        let start =
          let nw = Cycles.Clock.now t.clocks.(c) in
          if Int64.compare task.at nw > 0 then task.at else nw
        in
        (match !best with
        | Some (_, _, _, s) when Int64.compare s start <= 0 -> ()
        | Some _ | None -> best := Some (c, task, src, start))
  done;
  match !best with
  | None -> false
  | Some (c, task, src, _start) ->
      (match Heap.pop t.queues.(src) with
      | Some popped -> assert (popped.seq = task.seq)
      | None -> assert false);
      if src <> c then begin
        t.per_core.(c).stolen <- t.per_core.(c).stolen + 1;
        fire t "steal" ~core:c ~reason:"steal" ~cycles:0 ~nr:src
      end;
      let clk = t.clocks.(c) in
      let nw = Cycles.Clock.now clk in
      if Int64.compare task.at nw > 0 then begin
        (* the wait until release is this core's idle window; let the
           idle hook (e.g. the pool's reclaim drain) consume it *)
        let window = Int64.sub task.at nw in
        let budget =
          if Int64.compare window (Int64.of_int max_int) > 0 then max_int
          else Int64.to_int window
        in
        let spent = match t.idle with None -> 0 | Some f -> f ~core:c ~budget in
        let s = t.per_core.(c) in
        s.idle_cycles <- Int64.add s.idle_cycles window;
        s.reclaim_cycles <- Int64.add s.reclaim_cycles (Int64.of_int spent);
        Cycles.Clock.advance clk window;
        fire t "idle" ~core:c ~reason:"wait" ~cycles:(Int64.to_int window) ~nr:spent
      end;
      (match t.switch with Some f -> f c | None -> ());
      let before = Cycles.Clock.now clk in
      task.value ~core:c;
      let s = t.per_core.(c) in
      let busy = Cycles.Clock.elapsed_since clk before in
      s.busy_cycles <- Int64.add s.busy_cycles busy;
      s.executed <- s.executed + 1;
      fire t "sched"
        ~core:c
        ~reason:(if src <> c then "stolen" else "local")
        ~cycles:(Int64.to_int busy) ~nr:task.seq;
      true

let run t = while step t do () done
