let src = Logs.Src.create "wasp" ~doc:"Wasp micro-hypervisor runtime"

module Log = (val Logs.src_log src : Logs.LOG)

type clean_mode = [ `Sync | `Async ]

type reset_mode = [ `Memcpy | `Cow ]

type run_stats = {
  invocations : int;
  exited : int;
  faulted : int;
  fuel_exhausted : int;
  hypercalls : int;
  denied : int;
  snapshot_restores : int;
}

type t = {
  seed : int;
  sys : Kvmsim.Kvm.system;
  pool : Pool.t;
  pool_enabled : bool;
  snapshot_store : Snapshot_store.t;
  hostenv : Hostenv.t;
  boot_rng : Cycles.Rng.t;
  mutable recorder : Profiler.Replay.t option;
  mutable last_flight : string option;
  reset : reset_mode;
  retained : (string, Pool.shell) Hashtbl.t;
      (* CoW mode: one idle shell per snapshot key, kept dirty between
         invocations; the next restore rewrites only the dirty pages *)
}

let create ?(seed = 0xACE) ?(pool = true) ?(clean = `Sync) ?(reset = `Memcpy)
    ?(cores = 1) ?pool_capacity ?snapshot_capacity ?flight_capacity () =
  (* Naming the hypercall port lets KVM tell hypercall exits from I/O. *)
  let sys = Kvmsim.Kvm.open_dev ~seed ~cores ?flight_capacity ~hc_port:Hc.port () in
  let clean = match clean with `Sync -> Pool.Sync | `Async -> Pool.Async in
  {
    seed;
    sys;
    pool = Pool.create ?capacity:pool_capacity sys ~clean;
    pool_enabled = pool;
    snapshot_store = Snapshot_store.create ?capacity:snapshot_capacity ();
    hostenv = Hostenv.create ();
    boot_rng = Cycles.Rng.split (Kvmsim.Kvm.rng sys);
    recorder = None;
    last_flight = None;
    reset;
    retained = Hashtbl.create 8;
  }

let clock t = Kvmsim.Kvm.clock t.sys
let core_clock t core = Kvmsim.Kvm.core_clock t.sys core
let cores t = Kvmsim.Kvm.cores t.sys
let on_core t core = Kvmsim.Kvm.set_core t.sys core
let set_reclaim_policy t policy = Pool.set_reclaim_policy t.pool policy
let drain_reclaim t ~core ~budget = Pool.drain t.pool ~core ~budget
let set_prewarm t cfg = Pool.set_prewarm t.pool cfg
let prewarm_step t ~core ~budget = Pool.prewarm_step t.pool ~core ~budget
let env t = t.hostenv
let kvm t = t.sys
let pool_stats t = Pool.stats t.pool
let snapshots t = t.snapshot_store

let stats t =
  let n name = Kvmsim.Kvm.tally t.sys name in
  {
    invocations = n "wasp_invocations_total";
    exited = n "wasp_exited_total";
    faulted = n "wasp_faulted_total";
    fuel_exhausted = n "wasp_fuel_exhausted_total";
    hypercalls = n "wasp_hypercalls_total";
    denied = n "wasp_denied_hypercalls_total";
    snapshot_restores = n "wasp_snapshot_restores_total";
  }

(* Observers live on the KVM system — the one attach point the pool
   reads too — so attaching here reaches every layer at once. *)
let set_telemetry t hub = Kvmsim.Kvm.set_telemetry t.sys hub
let telemetry t = Kvmsim.Kvm.telemetry t.sys
let set_profiler t p = Kvmsim.Kvm.set_profiler t.sys p
let set_probes t e = Kvmsim.Kvm.set_probes t.sys e

(* Span args, sample names and boxed values are built only for a hub. *)
let hub t = Kvmsim.Kvm.hub_attached t.sys
let probes t = Kvmsim.Kvm.probes t.sys

let flight t = Kvmsim.Kvm.flight t.sys
let flight_dump t = t.last_flight

let set_fault_plan t plan = Kvmsim.Kvm.set_fault_plan t.sys plan

(* The store holds no observers; its series are published here, after
   every capture and drop. *)
let note_snapshot_store t =
  if hub t then begin
    let st = t.snapshot_store in
    Kvmsim.Kvm.gauge t.sys "wasp_snapshot_store_entries" (float_of_int (Snapshot_store.count st));
    Kvmsim.Kvm.gauge t.sys "wasp_snapshot_store_bytes"
      (float_of_int (Snapshot_store.total_bytes st))
  end

let drop_snapshot t ~key =
  Snapshot_store.clear t.snapshot_store ~key;
  note_snapshot_store t

let record_result t (outcome_kind : [ `Exited | `Faulted | `Fuel ]) ~hypercalls ~denied
    ~from_snapshot =
  Kvmsim.Kvm.count t.sys "wasp_invocations_total";
  Kvmsim.Kvm.count t.sys
    (match outcome_kind with
    | `Exited -> "wasp_exited_total"
    | `Faulted -> "wasp_faulted_total"
    | `Fuel -> "wasp_fuel_exhausted_total");
  Kvmsim.Kvm.count t.sys ~by:hypercalls "wasp_hypercalls_total";
  Kvmsim.Kvm.count t.sys ~by:denied "wasp_denied_hypercalls_total";
  if from_snapshot then Kvmsim.Kvm.count t.sys "wasp_snapshot_restores_total"

type outcome = Exited of int64 | Faulted of Vm.Cpu.fault | Fuel_exhausted

(* The .vxr outcome word. *)
let outcome_word = function Exited _ -> "exited" | Faulted _ -> "faulted" | Fuel_exhausted -> "fuel"

(* The attached recording's trailer. *)
let note_trailer t ~cycles ~outcome ~return_value =
  match t.recorder with
  | Some rc -> Profiler.Replay.finish rc ~cycles ~outcome ~return_value
  | None -> ()

type result = {
  outcome : outcome;
  return_value : int64;
  output : bytes option;
  console : string;
  cycles : int64;
  hypercalls : int;
  denied : int;
  pointer_violations : int;
  from_snapshot : bool;
  from_pool : bool;
}

let charge t cycles = Cycles.Clock.advance_int (clock t) cycles

(* The [snapshot] hypercall: capture the live shell under [key], publish
   the store's series (the evictions counter only when this capture
   evicted, so an eviction-free run never registers it), then write-
   protect the footprint and build the shared EPT — per-page PTE work,
   not a byte copy. *)
let capture_snapshot t ~key ~code ~mem ~cpu ~native_state =
  Kvmsim.Kvm.span t.sys ~args:(if hub t then [ ("key", key) ] else []) "snapshot_capture" (fun () ->
      let store = t.snapshot_store in
      let evicted = Snapshot_store.evictions store in
      let footprint = Snapshot_store.capture store ~key ~code ~mem ~cpu ~native_state in
      let evicted = Snapshot_store.evictions store - evicted in
      if evicted > 0 then
        Kvmsim.Kvm.count t.sys ~by:evicted "wasp_snapshot_store_evictions_total";
      note_snapshot_store t;
      charge t
        (((footprint + Vm.Memory.page_size - 1) / Vm.Memory.page_size)
        * Cycles.Costs.ept_map_page);
      0L)

(* Page-sharing gauges, refreshed at the end of every invocation (free:
   gauges charge no cycles). With no hub attached nothing would receive
   them, so the page-table scan is skipped. *)
let note_mem_gauges t mem =
  if hub t then begin
    let gauge name v = Kvmsim.Kvm.gauge t.sys name (float_of_int v) in
    let st = Vm.Memory.page_stats mem in
    gauge "wasp_mem_resident_pages" st.Vm.Memory.resident_pages;
    gauge "wasp_mem_shared_pages" st.Vm.Memory.shared_pages;
    gauge "wasp_mem_resident_bytes" (st.Vm.Memory.resident_pages * Vm.Memory.page_size);
    gauge "vm_page_cache_entries" (Vm.Memory.Page_cache.entries ());
    gauge "vm_page_cache_bytes" (Vm.Memory.Page_cache.bytes ())
  end

let acquire_shell t ~mem_size ~mode =
  if t.pool_enabled then Pool.acquire t.pool ~mem_size ~mode
  else begin
    (* Pool-less runtimes still benefit from pipelined pre-boot: a
       pre-built shell replaces the whole creation path with a handoff. *)
    match Pool.take_prewarmed t.pool ~mem_size ~mode with
    | Some shell -> (shell, false)
    | None -> (Pool.create_shell t.pool ~mem_size ~mode, false)
  end

let release_shell t shell = if t.pool_enabled then Pool.release t.pool shell

(* The one transcript emitter for exit-carried hypercalls (an [out] exit,
   each ring op, the ring doorbell): the replay event, then the flight
   note (formatted only if the ring is read), appended so probe-engine
   stamps on the exit survive, then the black-box dump if policy denied
   the call. *)
let note_hypercall t ~at ~nr ~args ~ret ?note ~denied () =
  (match t.recorder with
  | Some rec_ -> Profiler.Replay.add_event rec_ ~at ~nr ~args ~ret
  | None -> ());
  let fr = flight t in
  Option.iter (Profiler.Flight.append_deferred fr) note;
  if denied then
    t.last_flight <-
      Some
        (Profiler.Flight.dump fr
           ~reason:(Printf.sprintf "policy violation: hypercall %s denied" (Hc.name nr)))

(* Dispatch one hypercall: policy check, then client override or canned
   handler. Returns the value for r0 and whether execution should stop.
   Numbers outside [0, Hc.count) are rejected up front with [err_inval]
   (and a flight note) — they must never reach the policy bitmask or a
   handler table, where an attacker-controlled number could alias a
   permitted entry. *)
let dispatch t ~policy ~handlers ~(inv : Inv.t) ~take_snapshot nr args =
  if nr < 0 || nr >= Hc.count then begin
    inv.hypercalls <- inv.hypercalls + 1;
    Log.debug (fun m -> m "hypercall number %d out of range" nr);
    Profiler.Flight.append_note (flight t)
      (Printf.sprintf "hypercall out of range: %d -> EINVAL" nr);
    Hc.err_inval
  end
  else
  let allowed = Policy.allows policy nr in
  let span_args = if hub t then [ ("nr", Hc.name nr); ("allowed", string_of_bool allowed) ] else [] in
  Kvmsim.Kvm.span t.sys ~args:span_args "hypercall" (fun () ->
      inv.hypercalls <- inv.hypercalls + 1;
      (* vtrace "hypercall" / "hypercall_ret" bracket the dispatch: the
         return fire carries the handler's charged cycles. *)
      let reason = Hc.name nr in
      Kvmsim.Kvm.fire t.sys ~reason ~cycles:0 ~nr "hypercall";
      let hc_start = Cycles.Clock.now (clock t) in
      let r0 =
        if not allowed then begin
          inv.denied <- inv.denied + 1;
          Log.debug (fun m -> m "policy denied hypercall %s" (Hc.name nr));
          Hc.err_denied
        end
        else if nr = Hc.exit_ then begin
          inv.exit_code <- Some (if Array.length args > 0 then args.(0) else 0L);
          0L
        end
        else if nr = Hc.snapshot then begin
          if inv.snapshot_taken then Hc.err_inval
          else begin
            inv.snapshot_taken <- true;
            take_snapshot ()
          end
        end
        else begin
          match handlers nr with
          | Some h -> h inv args
          | None -> (
              match Handlers.canned nr with
              | Some h -> h inv args
              | None ->
                  Log.debug (fun m -> m "unhandled hypercall %s" (Hc.name nr));
                  Hc.err_inval)
        end
      in
      Kvmsim.Kvm.fire t.sys ~reason
        ~cycles:(Int64.to_int (Cycles.Clock.elapsed_since (clock t) hc_start))
        ~nr "hypercall_ret";
      r0)

let no_overrides (_ : int) : Inv.handler option = None

(* ------------------------------------------------------------------ *)
(* Hypercall ring drain                                                *)
(* ------------------------------------------------------------------ *)

(* Simulated guest-side instruction cost of producing one SQE, retired
   against the fuel budget before the op dispatches. Charging fuel per
   op keeps the watchdog meaningful for ring traffic: a guest cannot
   smuggle unbounded work through one doorbell, and a drain that runs
   out of fuel stops mid-batch with its partial completions persisted
   (sq_head/cq_tail are written back per op), which replays
   deterministically. *)
let ring_op_fuel = 16

type drain_outcome = Drain_done of int64 | Drain_fault of Vm.Cpu.fault

(* Drain every pending SQE in one VM exit. The doorbell is pure
   transport — always permitted, like [exit_] — but every queued op
   goes through the ordinary [dispatch] (policy, handlers, spans), each
   charged the deterministic in-kernel [hypercall_dispatch] cost instead
   of a full exit/entry round trip: that difference is the entire point
   of the ring. See docs/hypercalls.md for the ABI. *)
let drain_ring t ~policy ~handlers ~(inv : Inv.t) ~take_snapshot ~cpu ~mem ~fuel_left =
  Kvmsim.Kvm.count t.sys "wasp_ring_enters_total";
  inv.hypercalls <- inv.hypercalls + 1;
  (* A corrupt ring header is indistinguishable from any other wild
     guest write: the whole doorbell completes as a contained guest
     fault (retryable under supervision), with a black-box dump. *)
  let corrupt reason =
    Kvmsim.Kvm.count t.sys "wasp_ring_corrupt_total";
    t.last_flight <- Some (Profiler.Flight.dump (flight t) ~reason);
    Drain_fault (Vm.Cpu.Memory_oob { addr = Layout.ring_base; size = Layout.ring_size })
  in
  if Vm.Memory.size mem < Layout.ring_end then
    corrupt "ring_enter with no ring: guest memory smaller than the ring carve-out"
  else
    let head0 = Ring.sq_head mem and tail = Ring.sq_tail mem in
    let pending = Int64.to_int (Int64.sub tail head0) in
    if Kvmsim.Kvm.plan_fires t.sys Kvmsim.Kvm.site_ring_corrupt then
      corrupt "injected ring corruption"
    else if pending < 0 || pending > Layout.ring_entries then
      corrupt (Printf.sprintf "ring corrupt: sq_head=%Ld sq_tail=%Ld" head0 tail)
    else begin
      Kvmsim.Kvm.fire t.sys ~reason:"enter" ~cycles:0 ~nr:pending "ring_enter";
      (* Replay transcript: the doorbell first (head/tail window, ret =
         pending; no flight note), then one event per SQE in drain order.
         Replays re-run the drain for real, so the per-op events
         self-verify. *)
      note_hypercall t
        ~at:(Cycles.Clock.now (clock t))
        ~nr:Hc.ring_enter
        ~args:[| head0; tail; 0L; 0L; 0L |]
        ~ret:(Int64.of_int pending) ~denied:false ();
      let completed = ref 0 in
      let halted = ref false in
      let i = ref head0 in
      let exception Fuel_stop in
      (try
         while Int64.compare !i tail < 0 do
           if fuel_left () < ring_op_fuel then raise Fuel_stop;
           Vm.Cpu.add_retired cpu ring_op_fuel;
           let at = Cycles.Clock.now (clock t) in
           let denied_before = inv.denied in
           let sqe = Ring.read_sqe mem ~index:!i in
           let dispatch_args = ref sqe.Ring.args in
           let result =
             if inv.exit_code <> None || !halted then Hc.err_canceled
             else begin
               (* Resolve the link: the source must be an earlier op of
                  this same batch (delta >= 1, src >= head0). *)
               let link =
                 if Ring.has sqe.Ring.flags Ring.flag_link then begin
                   let delta = Ring.link_delta sqe.Ring.link in
                   let srci = Int64.sub !i (Int64.of_int delta) in
                   if delta < 1 || Int64.compare srci head0 < 0 then `Bad
                   else
                     let v = Ring.cqe_result mem ~index:srci in
                     if Int64.compare v 0L < 0 then `Canceled else `Val v
                 end
                 else `None
               in
               match link with
               | `Bad -> Hc.err_inval
               | `Canceled -> Hc.err_canceled
               | (`None | `Val _) as link -> (
                   if sqe.Ring.nr = Hc.ring_enter then
                     (* no nested doorbells *)
                     Hc.err_inval
                   else
                     try
                       if Ring.has sqe.Ring.flags Ring.flag_vec then begin
                         (* Vectored write/send: args = (fd, iov_ptr,
                            iov_cnt); one dispatch per segment, results
                            summed, first failure wins. A segment length
                            of -1 takes the linked result — how a read's
                            byte count flows into the send that follows
                            it without a guest round trip. *)
                         if sqe.Ring.nr <> Hc.write && sqe.Ring.nr <> Hc.send then
                           Hc.err_inval
                         else
                           let fd = sqe.Ring.args.(0)
                           and iov_ptr = sqe.Ring.args.(1)
                           and iov_cnt = Int64.to_int sqe.Ring.args.(2) in
                           if iov_cnt < 0 || iov_cnt > Ring.max_iov then Hc.err_inval
                           else begin
                             let total = ref 0L in
                             let failed = ref None in
                             let exception Seg_stop in
                             (try
                                for s = 0 to iov_cnt - 1 do
                                  let iov = Ring.read_iov mem ~ptr:iov_ptr ~i:s in
                                  let len =
                                    if iov.Ring.iov_len = -1L then
                                      match link with
                                      | `Val v -> v
                                      | `None -> iov.Ring.iov_len
                                    else iov.Ring.iov_len
                                  in
                                  charge t Cycles.Costs.hypercall_dispatch;
                                  let r =
                                    dispatch t ~policy ~handlers ~inv ~take_snapshot
                                      sqe.Ring.nr
                                      [| fd; iov.Ring.iov_ptr; len; 0L; 0L |]
                                  in
                                  if Int64.compare r 0L < 0 then begin
                                    failed := Some r;
                                    raise Seg_stop
                                  end
                                  else total := Int64.add !total r
                                done
                              with Seg_stop -> ());
                             match !failed with Some r -> r | None -> !total
                           end
                       end
                       else begin
                         let args = Array.copy sqe.Ring.args in
                         let bad_pos = ref false in
                         (match link with
                         | `Val v ->
                             let pos = Ring.link_pos sqe.Ring.link in
                             if pos > 4 then bad_pos := true else args.(pos) <- v
                         | `None -> ());
                         if !bad_pos then Hc.err_inval
                         else begin
                           dispatch_args := args;
                           charge t Cycles.Costs.hypercall_dispatch;
                           dispatch t ~policy ~handlers ~inv ~take_snapshot sqe.Ring.nr
                             args
                         end
                       end
                     with Vm.Memory.Fault _ ->
                       (* A wild buffer descriptor (e.g. an iov table
                          outside guest memory) fails just its own op. *)
                       Hc.err_fault)
             end
           in
           Ring.write_cqe mem ~index:!i ~nr:sqe.Ring.nr ~result;
           let index = !i and nr = sqe.Ring.nr in
           note_hypercall t ~at ~nr ~args:!dispatch_args ~ret:result
             ~note:(fun () -> Printf.sprintf "ring[%Ld] %s -> %Ld" index (Hc.name nr) result)
             ~denied:(inv.denied > denied_before) ();
           Kvmsim.Kvm.fire t.sys ~reason:(Hc.name sqe.Ring.nr)
             ~cycles:(Int64.to_int (Cycles.Clock.elapsed_since (clock t) at))
             ~nr:sqe.Ring.nr "ring_op";
           if Ring.has sqe.Ring.flags Ring.flag_halt && Int64.compare result 0L < 0 then
             halted := true;
           incr completed;
           i := Int64.add !i 1L;
           (* Per-op cursor write-back: a drain cut short by fuel leaves
              its completions visible and resumes exactly here. *)
           Ring.set_sq_head mem !i;
           Ring.set_cq_tail mem !i
         done
       with Fuel_stop -> ());
      Kvmsim.Kvm.count t.sys ~by:!completed "wasp_ring_ops_total";
      if hub t then Kvmsim.Kvm.sample t.sys "wasp_ring_batch_size" (Int64.of_int !completed);
      Drain_done (Int64.of_int !completed)
    end

(* ------------------------------------------------------------------ *)
(* The invocation lifecycle                                            *)
(* ------------------------------------------------------------------ *)

(* Both entry points share one lifecycle: [provision], then [restore] or
   [boot], their own marshal/execute steps, then [finish]. Every charged
   cycle between [start] and the end of the [clean] phase falls inside
   exactly one phase span (provision, image_load/boot or
   snapshot_restore, marshal, execute, clean) and the virtual clock only
   moves when charged, so the depth-1 phase durations tile the
   invocation: they sum exactly to the reported [cycles]. *)

type claim = {
  snapshot : (string * Snapshot_store.entry) option;
  retained_shell : Pool.shell option;  (* the key's retained CoW shell *)
  stale : Pool.shell option;  (* a retained shell whose snapshot is gone *)
}

type provisioned = {
  shell : Pool.shell;
  from_pool : bool;
  retained : bool;  (* [shell] is the key's retained CoW shell *)
  snapshot : (string * Snapshot_store.entry) option;
  start : int64;
}

(* A retained shell pins its key's invocations to its home core (its
   vCPU bills that core's clock) while the key's snapshot exists, which
   is when [claim] reuses it. Reads no LRU stamp of the store. *)
let on_home_core t ~snapshot_key =
  match (t.reset, snapshot_key) with
  | `Cow, Some key -> (
      match Hashtbl.find_opt t.retained key with
      | Some s
        when s.Pool.home <> Kvmsim.Kvm.current_core t.sys
             && Snapshot_store.mem t.snapshot_store ~key ->
          Kvmsim.Kvm.set_core t.sys s.Pool.home
      | Some _ | None -> ())
  | (`Cow | `Memcpy), _ -> ()

(* What an invocation starts from, decided before its [invocation] span
   opens: the home-core switch comes first, so the whole root span is
   stamped on that core's clock. A snapshot restores only the [code] it
   was taken from (a native payload's is empty): another image's entry
   under the key is stale, and is dropped so the invocation boots. A
   warm run of the same image finds its own bytes, one comparison. *)
let claim t ~name ~code ~snapshot_key =
  (* for probe contexts fired below Wasp (KVM exits, EPT breaks) *)
  Kvmsim.Kvm.set_payload t.sys name;
  on_home_core t ~snapshot_key;
  let snapshot =
    match snapshot_key with
    | None -> None
    | Some key -> (
        match Snapshot_store.find t.snapshot_store ~key with
        | Some e when e.code == code || Bytes.equal e.code code -> Some (key, e)
        | Some _ ->
            drop_snapshot t ~key;
            None
        | None -> None)
  in
  (* CoW mode keeps one idle shell per snapshot key between invocations.
     The invocation takes it out of [retained] ([finish] puts it back),
     so a shell that goes back to the pool is never still reachable by
     key. It is reused only while the key's snapshot exists: without one
     the invocation boots, and booting onto a dirty shell would leak its
     pages, so a stale shell is zeroed back into the pool instead. *)
  let retained, stale =
    match (t.reset, snapshot_key) with
    | `Cow, Some key ->
        let found = Hashtbl.find_opt t.retained key in
        Hashtbl.remove t.retained key;
        if Option.is_none snapshot then (None, found) else (found, None)
    | (`Cow | `Memcpy), _ -> (None, None)
  in
  { snapshot; retained_shell = retained; stale }

let provision t (c : claim) ~mem_size ~mode =
  let start = Cycles.Clock.now (clock t) in
  let shell, from_pool =
    Kvmsim.Kvm.span t.sys "provision" (fun () ->
        match c.retained_shell with
        | Some s -> (s, true)
        | None ->
            Option.iter (release_shell t) c.stale;
            acquire_shell t ~mem_size ~mode)
  in
  {
    shell;
    from_pool;
    retained = Option.is_some c.retained_shell;
    snapshot = c.snapshot;
    start;
  }

(* Restore [snapshot] into the provisioned shell, then run the caller's
   own restore work [k] inside the same span and return its value. *)
let restore t (prov : provisioned) (key, entry) k =
  let mem = prov.shell.mem and cpu = Kvmsim.Kvm.vcpu_cpu prov.shell.vcpu in
  let kind =
    if prov.retained then "cow" else match t.reset with `Memcpy -> "memcpy" | `Cow -> "lazy"
  in
  let args = if hub t then [ ("key", key); ("kind", kind) ] else [] in
  Kvmsim.Kvm.span t.sys ~args "snapshot_restore" (fun () ->
      (if prov.retained then begin
         (* SEUSS-style reset: only the dirty pages are rewritten *)
         let pages, _bytes = Snapshot_store.restore_cow entry ~mem ~cpu in
         (* reference swaps, one minor fault's worth of fixup per page —
            the copies were already paid for by the CoW breaks during the
            dirtying run *)
         charge t (pages * Cycles.Costs.cow_page_fault)
       end
       else
         let footprint = Snapshot_store.restore ~eager:(t.reset = `Memcpy) entry ~mem ~cpu in
         match t.reset with
         | `Memcpy ->
             (* the paper's eager restore: the cost is exactly the copy *)
             charge t (Cycles.Costs.memcpy_cost footprint)
         | `Cow ->
             (* repoint the vCPU at the snapshot's pre-built EPT root:
                O(1), independent of image size — pages fault in lazily *)
             charge t Cycles.Costs.ept_root_swap);
      k ())

let boot t ~mem ~mode =
  let mode_name = Vm.Modes.to_string mode in
  Kvmsim.Kvm.span t.sys ~args:(if hub t then [ ("mode", mode_name) ] else []) "boot" (fun () ->
      let boot_start = Cycles.Clock.now (clock t) in
      let _components = Vm.Boot.perform ~mem ~clock:(clock t) ~rng:t.boot_rng ~target:mode in
      if hub t then
        Kvmsim.Kvm.sample t.sys ("wasp_boot_cycles_" ^ mode_name)
          (Cycles.Clock.elapsed_since (clock t) boot_start))

let finish t (prov : provisioned) ~snapshot_key ~(inv : Inv.t) outcome ~return_value =
  Kvmsim.Kvm.span t.sys "clean" (fun () ->
      note_mem_gauges t prov.shell.mem;
      match (t.reset, snapshot_key) with
      | `Cow, Some key when Snapshot_store.find t.snapshot_store ~key <> None ->
          (* keep the dirty shell for the next CoW reset; no cleaning *)
          Hashtbl.replace t.retained key prov.shell
      | (`Cow | `Memcpy), _ -> release_shell t prov.shell);
  let cycles = Cycles.Clock.elapsed_since (clock t) prov.start in
  let from_snapshot = Option.is_some prov.snapshot in
  record_result t
    (match outcome with Exited _ -> `Exited | Faulted _ -> `Faulted | Fuel_exhausted -> `Fuel)
    ~hypercalls:inv.hypercalls ~denied:inv.denied ~from_snapshot;
  Kvmsim.Kvm.sample t.sys "wasp_invocation_cycles" cycles;
  {
    outcome;
    return_value;
    output = inv.output;
    console = Buffer.contents inv.console;
    cycles;
    hypercalls = inv.hypercalls;
    denied = inv.denied;
    pointer_violations = inv.pointer_violations;
    from_snapshot;
    from_pool = prov.from_pool;
  }

let run_inner t claim (image : Image.t) ~policy ~handlers ~input_bytes ~conn ~snapshot_key
    ~fuel ~inspect =
  let prov =
    match provision t claim ~mem_size:image.mem_size ~mode:image.mode with
    | prov -> prov
    | exception (Kvmsim.Kvm.Injected_failure _ as e) ->
        (* a failed KVM_CREATE_VM ends the invocation before it starts *)
        note_trailer t ~cycles:0L ~outcome:"faulted" ~return_value:0L;
        raise e
  in
  let cpu = Kvmsim.Kvm.vcpu_cpu prov.shell.vcpu in
  let mem = prov.shell.mem in
  (match prov.snapshot with
  | Some snapshot ->
      (* Fault plan: a restore can hand back a corrupted snapshot. The
         page under the restored PC is stomped with an invalid-opcode
         pattern (0xFF never decodes), so the guest faults
         deterministically at its first fetch — same plan, same fault,
         cycle for cycle. The stomp runs inside the restore span: the CoW
         break it triggers is restore work. *)
      restore t prov snapshot (fun () ->
          if Kvmsim.Kvm.plan_fires t.sys Kvmsim.Kvm.site_snapshot_corrupt then begin
            let page_size = Vm.Memory.page_size in
            let off = Vm.Cpu.pc cpu / page_size * page_size in
            let len = min page_size (Vm.Memory.size mem - off) in
            if len > 0 then Vm.Memory.write_bytes mem ~off (Bytes.make len '\xff')
          end)
  | None ->
      Kvmsim.Kvm.span t.sys ~args:(if hub t then [ ("image", image.name) ] else []) "image_load"
        (fun () ->
          Vm.Memory.write_bytes mem ~off:image.origin image.code;
          (* Recording: verify the image through the guest's logical page
             view, so the .vxr MD5 guards what the guest will actually
             read regardless of the page representation underneath. *)
          (match t.recorder with
          | Some rc ->
              let view =
                Vm.Memory.read_bytes mem ~off:image.origin ~len:(Bytes.length image.code)
              in
              if not (Profiler.Replay.image_matches rc view) then
                invalid_arg "Runtime.run: loaded image diverges from the recorded bytes"
          | None -> ());
          charge t (Cycles.Costs.memcpy_cost (Bytes.length image.code)));
      boot t ~mem ~mode:image.mode;
      Vm.Cpu.set_pc cpu image.entry;
      Vm.Cpu.set_sp cpu Layout.stack_top);
  (* Marshal arguments at guest address 0 (§6.1: "the argument, n, is
     loaded into the virtine's address space at address 0x0"). *)
  let inv =
    Kvmsim.Kvm.span t.sys "marshal" (fun () ->
        if Bytes.length input_bytes > 0 then begin
          Vm.Memory.write_bytes mem ~off:Layout.arg_area input_bytes;
          charge t (Cycles.Costs.memcpy_cost (Bytes.length input_bytes))
        end;
        Inv.create ~mem ~env:t.hostenv ~clock:(clock t) ~rng:(Kvmsim.Kvm.rng t.sys) ?conn
          ~input:input_bytes ~heap_brk:(Image.footprint image) ())
  in
  let take_snapshot () =
    match snapshot_key with
    | None -> Hc.err_inval
    | Some key -> capture_snapshot t ~key ~code:image.code ~mem ~cpu ~native_state:None
  in
  (* The VM loop: KVM_RUN until the virtine exits, servicing hypercalls. *)
  let retired_at_start = Vm.Cpu.instructions_retired cpu in
  let fuel_left () =
    fuel - Int64.to_int (Int64.sub (Vm.Cpu.instructions_retired cpu) retired_at_start)
  in
  let exits = ref 0 in
  let rec loop () =
    if fuel_left () <= 0 then Fuel_exhausted
    else begin
      incr exits;
      match Kvmsim.Kvm.run ~fuel:(fuel_left ()) prov.shell.vcpu with
      | Vm.Cpu.Halt -> Exited (Vm.Cpu.get_reg cpu 0)
      | Vm.Cpu.Io_out { port; value } when
          port = Hc.port && Int64.to_int value = Hc.ring_enter -> (
          (* The batching doorbell: one exit drains the whole ring. *)
          match drain_ring t ~policy ~handlers ~inv ~take_snapshot ~cpu ~mem ~fuel_left with
          | Drain_fault f -> Faulted f
          | Drain_done r0 -> (
              Vm.Cpu.set_reg cpu 0 r0;
              match inv.exit_code with Some code -> Exited code | None -> loop ()))
      | Vm.Cpu.Io_out { port; value } ->
          if port = Hc.port then begin
            let nr = Int64.to_int value in
            let args = Array.init 5 (fun i -> Vm.Cpu.get_reg cpu (i + 1)) in
            let at = Cycles.Clock.now (clock t) in
            let denied_before = inv.denied in
            let r0 = dispatch t ~policy ~handlers ~inv ~take_snapshot nr args in
            Vm.Cpu.set_reg cpu 0 r0;
            (* the note keeps the numbers unboxed: it lives until the
               flight ring wraps *)
            let nums = Bytes.create 48 in
            Array.iteri (fun i a -> Bytes.set_int64_le nums (8 * i) a) args;
            Bytes.set_int64_le nums 40 r0;
            note_hypercall t ~at ~nr ~args ~ret:r0
              ~note:(fun () ->
                let num i = Int64.to_string (Bytes.get_int64_le nums (8 * i)) in
                Printf.sprintf "%s(%s) -> %s" (Hc.name nr)
                  (String.concat ", " (List.init 5 num)) (num 5))
              ~denied:(inv.denied > denied_before) ();
            match inv.exit_code with Some code -> Exited code | None -> loop ()
          end
          else begin
            (* Unknown port: no externally observable behaviour; swallow. *)
            Vm.Cpu.set_reg cpu 0 Hc.err_denied;
            loop ()
          end
      | Vm.Cpu.Io_in { port = _; reg } ->
          Vm.Cpu.set_reg cpu reg 0L;
          loop ()
      | Vm.Cpu.Fault f -> Faulted f
      | Vm.Cpu.Out_of_fuel -> Fuel_exhausted
    end
  in
  (* KVM installs the step hook the attached observers need, if any *)
  let outcome = Kvmsim.Kvm.execute prov.shell.vcpu ~symbols:image.symbols loop in
  (match outcome with
  | Faulted _ ->
      t.last_flight <-
        Some
          (Profiler.Flight.dump (flight t)
             ~reason:(Printf.sprintf "guest fault at pc=0x%x" (Vm.Cpu.pc cpu)))
  | Exited _ | Fuel_exhausted -> ());
  (match inspect with Some f -> f mem cpu | None -> ());
  let return_value =
    match outcome with Exited v -> v | Faulted _ | Fuel_exhausted -> Vm.Cpu.get_reg cpu 0
  in
  let result = finish t prov ~snapshot_key ~inv outcome ~return_value in
  if hub t then Kvmsim.Kvm.sample t.sys "kvm_exits_per_invocation" (Int64.of_int !exits);
  note_trailer t ~cycles:result.cycles ~outcome:(outcome_word outcome) ~return_value;
  result

let undersized ~mem_size mode =
  let need = Vm.Boot.min_mem_size mode and mode = Vm.Modes.to_string mode in
  if mem_size >= need then None
  else Some (Printf.sprintf "mem_size %d is under the %d bytes a %s-mode boot writes" mem_size need mode)

(* Argument errors, raised before anything is provisioned. *)
let check_memory fn ~mem_size mode =
  Option.iter (fun m -> invalid_arg (fn ^ ": " ^ m)) (undersized ~mem_size mode)

(* The bytes [run] marshals into the argument area: [input] as given,
   or [args] as little-endian int64s. *)
let marshal_input ~input ~args =
  let b =
    match (input, args) with
    | Some b, [] -> b
    | None, [] -> Bytes.empty
    | None, args ->
        let b = Bytes.create (8 * List.length args) in
        List.iteri (fun i v -> Bytes.set_int64_le b (8 * i) v) args;
        b
    | Some _, _ :: _ -> invalid_arg "Runtime.run: pass either ~input or ~args, not both"
  in
  if Bytes.length b > Layout.arg_area_size then
    invalid_arg "Runtime.run: input exceeds the argument area";
  b

let run t (image : Image.t) ?(policy = Policy.deny_all) ?(handlers = no_overrides) ?input
    ?(args = []) ?conn ?snapshot_key ?(fuel = 50_000_000) ?inspect () =
  check_memory "Runtime.run" ~mem_size:image.mem_size image.mode;
  let input_bytes = marshal_input ~input ~args in
  let claim = claim t ~name:image.name ~code:image.code ~snapshot_key in
  Kvmsim.Kvm.span t.sys ~args:(if hub t then [ ("image", image.name) ] else []) "invocation"
    (fun () ->
      run_inner t claim image ~policy ~handlers ~input_bytes ~conn ~snapshot_key ~fuel
        ~inspect)

(* ------------------------------------------------------------------ *)
(* Native payloads                                                     *)
(* ------------------------------------------------------------------ *)

module Native_ctx = struct
  type ctx = {
    runtime : t;
    inv : Inv.t;
    policy : Policy.t;
    snapshot_key : string option;
    shell : Pool.shell;
    mutable snapshot_factory : (unit -> Univ.t) option;
  }

  let mem c = c.inv.Inv.mem
  let charge c cycles = Cycles.Clock.advance_int c.inv.Inv.clock cycles

  let alloc c size =
    let inv = c.inv in
    let aligned = (size + 7) land lnot 7 in
    let addr = inv.Inv.heap_brk in
    if addr + aligned > Vm.Memory.size inv.Inv.mem then
      raise (Vm.Memory.Fault { addr; size = aligned });
    inv.Inv.heap_brk <- addr + aligned;
    addr

  let offer_snapshot_state c factory = c.snapshot_factory <- Some factory

  let take_snapshot_of c () =
    match c.snapshot_key with
    | None -> Hc.err_inval
    | Some key ->
        capture_snapshot c.runtime ~key ~code:Bytes.empty ~mem:c.inv.Inv.mem
          ~cpu:(Kvmsim.Kvm.vcpu_cpu c.shell.vcpu) ~native_state:c.snapshot_factory

  let dispatch_one c nr args =
    let full_args = Array.make 5 0L in
    Array.blit args 0 full_args 0 (min (Array.length args) 5);
    dispatch c.runtime ~policy:c.policy ~handlers:no_overrides ~inv:c.inv
      ~take_snapshot:(take_snapshot_of c) nr full_args

  let hypercall c nr args =
    (* Same crossing cost as an [out]-triggered exit. *)
    charge c Cycles.Costs.hypercall_guest_side;
    charge c Cycles.Costs.hypercall_round_trip;
    dispatch_one c nr args

  (* The native analogue of the guest ring: one crossing amortized over
     the batch. The first op pays the full exit/entry round trip (which
     already includes one in-kernel dispatch); each subsequent op only
     its [hypercall_dispatch]. Results come back in submission order. *)
  let hypercall_batch c ops =
    match ops with
    | [] -> []
    | first :: rest ->
        let r0 = (fun (nr, args) -> hypercall c nr args) first in
        r0
        :: List.map
             (fun (nr, args) ->
               charge c Cycles.Costs.hypercall_dispatch;
               dispatch_one c nr args)
             rest
end

let run_native_inner t claim ~mem_size ~policy ~input ~snapshot_key ~body =
  let prov = provision t claim ~mem_size ~mode:Vm.Modes.Long in
  let mem = prov.shell.mem in
  let restored, heap_brk =
    match prov.snapshot with
    | Some ((_, entry) as snapshot) ->
        ( restore t prov snapshot (fun () ->
              Option.map (fun f -> f ()) entry.Snapshot_store.native_state),
          (* past the snapshot's footprint, so fresh allocations do not
             clobber restored state *)
          max Layout.image_base entry.Snapshot_store.footprint )
    | None ->
        boot t ~mem ~mode:Vm.Modes.Long;
        (None, Layout.image_base)
  in
  let inv =
    Inv.create ~mem ~env:t.hostenv ~clock:(clock t) ~rng:(Kvmsim.Kvm.rng t.sys) ~input ~heap_brk ()
  in
  let ctx =
    {
      Native_ctx.runtime = t;
      inv;
      policy;
      snapshot_key;
      shell = prov.shell;
      snapshot_factory = None;
    }
  in
  let outcome =
    Kvmsim.Kvm.span t.sys "execute" (fun () ->
        match body ctx ~restored with
        | rv -> (
            match inv.Inv.exit_code with Some code -> Exited code | None -> Exited rv)
        | exception Vm.Memory.Fault { addr; size } ->
            Faulted (Vm.Cpu.Memory_oob { addr; size }))
  in
  let return_value = match outcome with Exited v -> v | _ -> 0L in
  finish t prov ~snapshot_key ~inv outcome ~return_value

let run_native t ~name ?(mem_size = Layout.default_mem_size) ?(policy = Policy.deny_all)
    ?(input = Bytes.empty) ?snapshot_key ~body () =
  check_memory "Runtime.run_native" ~mem_size Vm.Modes.Long;
  let claim = claim t ~name ~code:Bytes.empty ~snapshot_key in
  Kvmsim.Kvm.span t.sys ~args:(if hub t then [ ("payload", name) ] else []) "invocation"
    (fun () ->
      run_native_inner t claim ~mem_size ~policy ~input ~snapshot_key ~body)

(* ------------------------------------------------------------------ *)
(* Record and replay                                                   *)
(* ------------------------------------------------------------------ *)

let recording ~seed ?fault_plan (image : Image.t) policy ~fuel =
  match Policy.to_string policy with
  | None -> Error "cannot record a Custom policy: it has no .vxr form"
  | Some policy ->
      Ok
        (Profiler.Replay.create ~name:image.name ~mode:(Vm.Modes.to_string image.mode)
           ~origin:image.origin ~entry:image.entry ~mem_size:image.mem_size
           ~code:(Bytes.to_string image.code) ~seed ~policy ~fuel ?fault_plan ())

let record t ?fault_plan image policy ~fuel =
  let r = recording ~seed:t.seed ?fault_plan image policy ~fuel in
  Result.iter (fun rc -> t.recorder <- Some rc) r;
  r

let of_recording rc =
  let ( let* ) = Result.bind in
  let* mode =
    Option.to_result
      ~none:(Printf.sprintf "unknown mode %S" (Profiler.Replay.mode rc))
      (Vm.Modes.of_string (Profiler.Replay.mode rc))
  in
  let* () =
    match undersized ~mem_size:(Profiler.Replay.mem_size rc) mode with
    | Some m -> Error m
    | None -> Ok ()
  in
  let* policy = Policy.of_string (Profiler.Replay.policy rc) in
  let* plan =
    match Profiler.Replay.fault_plan rc with
    | None -> Ok None
    | Some text -> (
        match Cycles.Fault_plan.of_string text with
        | Ok plan -> Ok (Some plan)
        | Error e -> Error ("bad fault plan: " ^ e))
  in
  let image : Image.t =
    {
      name = Profiler.Replay.image_name rc;
      code = Bytes.of_string (Profiler.Replay.code rc);
      origin = Profiler.Replay.origin rc;
      entry = Profiler.Replay.entry rc;
      mode;
      mem_size = Profiler.Replay.mem_size rc;
      symbols = [];
    }
  in
  Ok (image, policy, plan)

(* The verdict: every [Replay.diff] divergence, or, when there is none,
   the first line where the fresh recording's text departs from the
   recorded text (a field spelled other than the recorder writes it). *)
let verdict ~text recorded fresh =
  match Profiler.Replay.diff recorded fresh with
  | _ :: _ as divergences -> divergences
  | [] ->
      let line = function x :: _ -> Printf.sprintf "%S" x | [] -> "end of text" in
      let rec first i = function
        | [], [] -> []
        | x :: a, y :: b when String.equal x y -> first (i + 1) (a, b)
        | a, b ->
            [ Printf.sprintf "recording text differs byte-for-byte at line %d: %s vs %s" i
                (line a) (line b) ]
      in
      let lines = String.split_on_char '\n' in
      first 1 (lines text, lines (Profiler.Replay.to_string fresh))

let replay ?(attach = fun _ _ -> None) text =
  let ( let* ) = Result.bind in
  let* recorded = Profiler.Replay.of_string text in
  let* image, policy, plan = of_recording recorded in
  let t = create ~seed:(Profiler.Replay.seed recorded) () in
  set_fault_plan t plan;
  let fuel = Profiler.Replay.fuel recorded in
  let* fresh = record t ?fault_plan:(Profiler.Replay.fault_plan recorded) image policy ~fuel in
  match run t image ~policy ?conn:(attach t image) ~fuel () with
  | (_ : result) -> Ok (fresh, verdict ~text recorded fresh)
  | exception Kvmsim.Kvm.Injected_failure _ -> Ok (fresh, verdict ~text recorded fresh)
  | exception e -> Error ("replay crashed: " ^ Printexc.to_string e)
