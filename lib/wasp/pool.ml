type shell = {
  vm : Kvmsim.Kvm.vm;
  vcpu : Kvmsim.Kvm.vcpu;
  mem : Vm.Memory.t;
  mem_size : int;
  home : int;
}

type clean_mode = Sync | Async

type reclaim_policy = Eager | Scheduled

type stats = {
  created : int;
  reused : int;
  cleans : int;
  background_cycles : int64;
  evicted : int;
  clean_stalls : int;
  stall_cycles : int64;
  prewarmed : int;
  prewarm_hits : int;
}

type prewarm = { pw_mem_size : int; pw_mode : Vm.Modes.t; pw_target : int }

type cached = { c_shell : shell; last_used : int64 }

type pending = { p_shell : shell; mutable remaining : int }

type shard = {
  id : int;
  buckets : (int, cached list ref) Hashtbl.t;  (* mem_size -> MRU-first list *)
  reclaim : pending Queue.t;                   (* oldest release first *)
  prewarmed : shell Queue.t;                   (* pre-built, never-run shells *)
  mutable cached_count : int;
}

type t = {
  sys : Kvmsim.Kvm.system;
  shards : shard array;
  clean : clean_mode;
  capacity : int;
  mutable policy : reclaim_policy;
  mutable prewarm : prewarm option;
  mutable built : int;  (* shells built from scratch *)
  mutable background : int64;  (* async cleaning + prewarm work *)
  mutable stalled : int64;  (* cycles acquires waited on a clean *)
}

let create ?(capacity = 64) sys ~clean =
  if capacity < 1 then invalid_arg "Pool.create: capacity must be >= 1";
  {
    sys;
    shards =
      Array.init (Kvmsim.Kvm.cores sys) (fun id ->
          {
            id;
            buckets = Hashtbl.create 8;
            reclaim = Queue.create ();
            prewarmed = Queue.create ();
            cached_count = 0;
          });
    clean;
    capacity;
    policy = Eager;
    prewarm = None;
    built = 0;
    background = 0L;
    stalled = 0L;
  }

let stats t =
  let n name = Kvmsim.Kvm.tally t.sys name in
  {
    created = t.built;
    reused = n "wasp_pool_hits_total";
    cleans = n "wasp_pool_cleans_total";
    background_cycles = t.background;
    evicted = n "wasp_pool_evictions_total";
    clean_stalls = n "wasp_pool_clean_stalls_total";
    stall_cycles = t.stalled;
    prewarmed = n "wasp_pool_prewarmed_total";
    prewarm_hits = n "wasp_pool_prewarm_hits_total";
  }

let set_reclaim_policy t policy = t.policy <- policy

let size t = Array.fold_left (fun acc s -> acc + s.cached_count) 0 t.shards

let reclaim_pending t =
  Array.fold_left (fun acc s -> acc + Queue.length s.reclaim) 0 t.shards

(* Every pool observation goes through the KVM system. The vtrace pool
   sites fire with [nr] = the shell footprint; none charges cycles.
   Gauges, their names and instants' args are built only for a hub. *)
let hub t = Kvmsim.Kvm.hub_attached t.sys

let note_size t =
  if hub t then begin
    Kvmsim.Kvm.gauge t.sys "wasp_pool_size" (float_of_int (size t));
    if Array.length t.shards > 1 then
      Array.iter
        (fun s ->
          let name = Printf.sprintf "wasp_pool_size_core%d" s.id in
          Kvmsim.Kvm.gauge t.sys name (float_of_int s.cached_count))
        t.shards
  end

let note_reclaim t shard =
  if hub t then begin
    Kvmsim.Kvm.gauge t.sys "wasp_pool_reclaim_depth" (float_of_int (reclaim_pending t));
    if Array.length t.shards > 1 then
      let name = Printf.sprintf "wasp_pool_reclaim_depth_core%d" shard.id in
      Kvmsim.Kvm.gauge t.sys name (float_of_int (Queue.length shard.reclaim))
  end

let note_background t =
  if hub t then Kvmsim.Kvm.gauge t.sys "wasp_pool_background_cycles" (Int64.to_float t.background)

let current_shard t = t.shards.(Kvmsim.Kvm.current_core t.sys)

let bucket shard mem_size =
  match Hashtbl.find_opt shard.buckets mem_size with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace shard.buckets mem_size l;
      l

(* Evict the least-recently-used cached shell of [shard] (the tail of the
   bucket whose oldest entry has the smallest stamp). *)
let evict_lru t shard =
  let victim = ref None in
  Hashtbl.iter
    (fun mem_size l ->
      match List.rev !l with
      | [] -> ()
      | oldest :: _ -> (
          match !victim with
          | Some (_, stamp) when stamp <= oldest.last_used -> ()
          | _ -> victim := Some (mem_size, oldest.last_used)))
    shard.buckets;
  match !victim with
  | None -> ()
  | Some (mem_size, _) ->
      let l = bucket shard mem_size in
      (match List.rev !l with
      | [] -> ()
      | _oldest :: rest_rev ->
          l := List.rev rest_rev;
          shard.cached_count <- shard.cached_count - 1;
          Kvmsim.Kvm.count t.sys "wasp_pool_evictions_total";
          Kvmsim.Kvm.fire t.sys ~reason:"lru" ~cycles:0 ~nr:mem_size "pool_evict")

(* Return a cleaned shell to its shard's cache, evicting the LRU entry
   when the shard is over capacity. *)
let cache t shell =
  let shard = t.shards.(shell.home) in
  let now = Cycles.Clock.now (Kvmsim.Kvm.core_clock t.sys shard.id) in
  let l = bucket shard shell.mem_size in
  l := { c_shell = shell; last_used = now } :: !l;
  shard.cached_count <- shard.cached_count + 1;
  if shard.cached_count > t.capacity then evict_lru t shard;
  note_size t

let pop_cached shard mem_size =
  match Hashtbl.find_opt shard.buckets mem_size with
  | None | Some { contents = [] } -> None
  | Some l ->
      let hd = List.hd !l in
      l := List.tl !l;
      shard.cached_count <- shard.cached_count - 1;
      Some hd.c_shell

(* Remove the oldest pending clean for [mem_size], preserving queue order
   of the rest. *)
let take_pending shard mem_size =
  let n = Queue.length shard.reclaim in
  let found = ref None in
  for _ = 1 to n do
    let p = Queue.pop shard.reclaim in
    if !found = None && p.p_shell.mem_size = mem_size then found := Some p
    else Queue.push p shard.reclaim
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Pipelined pre-boot (async refill)                                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic cost of building one shell from scratch — the same
   KVM_CREATE_VM + memslot + KVM_CREATE_VCPU path a miss charges, minus
   the jitter (background work must replay cycle-for-cycle). *)
let shell_cost =
  Cycles.Costs.kvm_create_vm + Cycles.Costs.kvm_memory_region
  + Cycles.Costs.kvm_create_vcpu

let set_prewarm t cfg =
  (match cfg with
  | Some { pw_target; pw_mem_size; _ } ->
      if pw_target < 1 then invalid_arg "Pool.set_prewarm: target must be >= 1";
      if pw_mem_size < 1 then invalid_arg "Pool.set_prewarm: mem_size must be >= 1"
  | None -> ());
  t.prewarm <- cfg

let note_prewarm t =
  if hub t then
    Kvmsim.Kvm.gauge t.sys "wasp_pool_prewarm_depth"
      (float_of_int
         (Array.fold_left (fun acc s -> acc + Queue.length s.prewarmed) 0 t.shards));
  note_background t

(* Book one background shell build against [core]'s shard without
   touching any clock: Kvm.build_shell charges nothing, the construction
   cost lands in [background_cycles] and the caller's idle budget. *)
let build_prewarmed t ~core ~mem_size ~mode =
  let vcpu = Kvmsim.Kvm.build_shell t.sys ~core ~size:mem_size ~mode in
  let vm = Kvmsim.Kvm.vcpu_vm vcpu in
  let shell =
    { vm; vcpu; mem = Kvmsim.Kvm.vm_memory vm; mem_size; home = core }
  in
  Queue.push shell t.shards.(core).prewarmed;
  t.background <- Int64.add t.background (Int64.of_int shell_cost);
  Kvmsim.Kvm.count t.sys "wasp_pool_prewarmed_total";
  Kvmsim.Kvm.fire t.sys ~reason:"build" ~cycles:shell_cost ~nr:mem_size "pool_prewarm"

let prewarm_step t ~core ~budget =
  match t.prewarm with
  | None -> 0
  | Some { pw_mem_size; pw_mode; pw_target } ->
      let shard = t.shards.(core) in
      let spent = ref 0 in
      while
        Queue.length shard.prewarmed < pw_target && !spent + shell_cost <= budget
      do
        build_prewarmed t ~core ~mem_size:pw_mem_size ~mode:pw_mode;
        spent := !spent + shell_cost
      done;
      if !spent > 0 then note_prewarm t;
      !spent

let take_prewarmed t ~mem_size ~mode =
  let shard = current_shard t in
  match Queue.peek_opt shard.prewarmed with
  | Some shell when shell.mem_size = mem_size ->
      ignore (Queue.pop shard.prewarmed);
      Kvmsim.Kvm.count t.sys "wasp_pool_prewarm_hits_total";
      (* The handoff is one ioctl to adopt the prepared context, plus a
         vCPU reset into the requested mode — never the creation path. *)
      Cycles.Clock.advance_int (Kvmsim.Kvm.clock t.sys) Cycles.Costs.ioctl_syscall;
      Kvmsim.Kvm.reset_vcpu shell.vcpu ~mode;
      let cycles = Cycles.Costs.ioctl_syscall in
      Kvmsim.Kvm.fire t.sys ~reason:"take" ~cycles ~nr:mem_size "pool_prewarm";
      (* Standalone (Eager) mode assumes the background builder keeps
         up, mirroring Async+Eager cleaning: refill immediately as
         background work. Scheduled mode waits for idle-cycle
         prewarm_step calls. *)
      (match (t.policy, t.prewarm) with
      | Eager, Some { pw_mem_size; pw_mode; pw_target } ->
          if
            pw_mem_size = mem_size
            && Queue.length shard.prewarmed < pw_target
          then build_prewarmed t ~core:shard.id ~mem_size:pw_mem_size ~mode:pw_mode
      | (Eager | Scheduled), _ -> ());
      note_prewarm t;
      Some shell
  | Some _ | None -> None

let create_shell t ~mem_size ~mode =
  t.built <- t.built + 1;
  let vm = Kvmsim.Kvm.create_vm t.sys in
  let mem = Kvmsim.Kvm.set_user_memory_region vm ~size:mem_size in
  let vcpu = Kvmsim.Kvm.create_vcpu vm ~mode in
  { vm; vcpu; mem; mem_size; home = Kvmsim.Kvm.current_core t.sys }

let acquire t ~mem_size ~mode =
  let shard = current_shard t and nr = mem_size in
  (* A nested span (inside the provision phase) so a traced request can
     attribute its provision cycles to hit/stall/miss specifically. *)
  let args = if hub t then [ ("mem_size", string_of_int mem_size) ] else [] in
  Kvmsim.Kvm.span t.sys ~args "pool_acquire" @@ fun () ->
  let hit shell =
    Kvmsim.Kvm.count t.sys "wasp_pool_hits_total";
    Kvmsim.Kvm.instant t.sys "pool_hit";
    Kvmsim.Kvm.reset_vcpu shell.vcpu ~mode;
    (shell, true)
  in
  let result =
    match pop_cached shard mem_size with
    | Some shell ->
        Kvmsim.Kvm.fire t.sys ~reason:"hit" ~cycles:0 ~nr "pool_acquire";
        hit shell
    | None -> (
        match take_pending shard mem_size with
        | Some p ->
            (* The only matching shells are still on the reclaim queue:
               the acquire blocks on the in-flight clean and pays the
               remaining cycles — this is where deferred cleaning becomes
               visible in tail latency. *)
            t.stalled <- Int64.add t.stalled (Int64.of_int p.remaining);
            t.background <- Int64.add t.background (Int64.of_int p.remaining);
            Cycles.Clock.advance_int (Kvmsim.Kvm.clock t.sys) p.remaining;
            Kvmsim.Kvm.count t.sys "wasp_pool_clean_stalls_total";
            if hub t then
              Kvmsim.Kvm.instant t.sys ~args:[ ("cycles", string_of_int p.remaining) ] "clean_stall";
            note_reclaim t shard;
            Kvmsim.Kvm.fire t.sys ~reason:"stall" ~cycles:p.remaining ~nr "pool_acquire";
            hit p.p_shell
        | None -> (
            match take_prewarmed t ~mem_size ~mode with
            | Some shell ->
                (* Pipelined pre-boot hit: the shell was built on idle
                   cycles, so the acquire pays only the handoff. *)
                Kvmsim.Kvm.fire t.sys ~reason:"prewarm" ~cycles:0 ~nr "pool_acquire";
                Kvmsim.Kvm.count t.sys "wasp_pool_hits_total";
                Kvmsim.Kvm.instant t.sys "pool_prewarm_hit";
                (shell, true)
            | None ->
                Kvmsim.Kvm.fire t.sys ~reason:"miss" ~cycles:0 ~nr "pool_acquire";
                Kvmsim.Kvm.count t.sys "wasp_pool_misses_total";
                Kvmsim.Kvm.instant t.sys "pool_miss";
                (create_shell t ~mem_size ~mode, false)))
  in
  note_size t;
  result

let release t shell =
  Kvmsim.Kvm.count t.sys "wasp_pool_cleans_total";
  (* Drop every page reference and start a clean dirty generation: the
     host-side work is O(pages), but the simulated cost model still
     charges the memset this stands for — the cleaning the paper's
     dedicated cleaner thread performs (Figure 8's Wasp+CA). *)
  Vm.Memory.reset_zero shell.mem;
  let cost = Cycles.Costs.memset_cost shell.mem_size in
  Kvmsim.Kvm.fire t.sys
    ~reason:
      (match (t.clean, t.policy) with
      | Sync, _ -> "sync"
      | Async, Eager -> "async"
      | Async, Scheduled -> "scheduled")
    ~cycles:cost ~nr:shell.mem_size "pool_release";
  match (t.clean, t.policy) with
  | Sync, _ ->
      Cycles.Clock.advance_int (Kvmsim.Kvm.clock t.sys) cost;
      cache t shell
  | Async, Eager ->
      (* standalone mode: a dedicated cleaner thread is assumed to keep
         up, so the cost is pure background work *)
      t.background <- Int64.add t.background (Int64.of_int cost);
      if hub t then Kvmsim.Kvm.instant t.sys ~args:[ ("cycles", string_of_int cost) ] "async_clean";
      note_background t;
      cache t shell
  | Async, Scheduled ->
      (* scheduler mode: the shell is unavailable until a cleaner core
         drains it (or an acquire stalls on it) *)
      let shard = t.shards.(shell.home) in
      Queue.push { p_shell = shell; remaining = cost } shard.reclaim;
      note_reclaim t shard;
      note_size t

let drain t ~core ~budget =
  let shard = t.shards.(core) in
  let spent = ref 0 in
  let continue_ = ref true in
  while !continue_ && !spent < budget && not (Queue.is_empty shard.reclaim) do
    let p = Queue.peek shard.reclaim in
    let step = min p.remaining (budget - !spent) in
    p.remaining <- p.remaining - step;
    spent := !spent + step;
    t.background <- Int64.add t.background (Int64.of_int step);
    if p.remaining = 0 then begin
      ignore (Queue.pop shard.reclaim);
      cache t p.p_shell
    end
    else continue_ := false
  done;
  if !spent > 0 then begin
    note_background t;
    note_reclaim t shard
  end;
  !spent
