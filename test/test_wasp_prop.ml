(* Property-based tests for the Wasp core: policy algebra, dirty-page
   tracking, and the equivalence of copy-on-write and full snapshot
   restores under arbitrary write sequences. *)

(* ------------------------------------------------------------------ *)
(* Policy algebra                                                       *)
(* ------------------------------------------------------------------ *)

let gen_nr = QCheck.Gen.int_range 0 (Wasp.Hc.count - 1)

let prop_mask_matches_list =
  QCheck.Test.make ~name:"of_list and mask_of_list agree" ~count:500
    (QCheck.make QCheck.Gen.(pair (list_size (int_range 0 8) gen_nr) gen_nr))
    (fun (allowed, probe) ->
      let p = Wasp.Policy.of_list allowed in
      let expected = probe = Wasp.Hc.exit_ || List.mem probe allowed in
      Wasp.Policy.allows p probe = expected)

let prop_deny_all_denies_everything_but_exit =
  QCheck.Test.make ~name:"deny-all admits only exit" ~count:200 (QCheck.make gen_nr)
    (fun nr -> Wasp.Policy.allows Wasp.Policy.deny_all nr = (nr = Wasp.Hc.exit_))

let prop_allow_all_admits_everything =
  QCheck.Test.make ~name:"allow-all admits everything" ~count:200 (QCheck.make gen_nr)
    (fun nr -> Wasp.Policy.allows Wasp.Policy.allow_all nr)

let prop_mask_monotone =
  QCheck.Test.make ~name:"adding a grant never revokes" ~count:300
    (QCheck.make QCheck.Gen.(triple (list_size (int_range 0 6) gen_nr) gen_nr gen_nr))
    (fun (allowed, extra, probe) ->
      let small = Wasp.Policy.of_list allowed in
      let big = Wasp.Policy.of_list (extra :: allowed) in
      (not (Wasp.Policy.allows small probe)) || Wasp.Policy.allows big probe)

(* ------------------------------------------------------------------ *)
(* Dirty-page tracking                                                  *)
(* ------------------------------------------------------------------ *)

let mem_size = 64 * 1024

type write_op = { addr : int; width : int; value : int64 }

let gen_write =
  QCheck.Gen.(
    let* width = oneofl [ 1; 2; 4; 8 ] in
    let* addr = int_range 0 (mem_size - 8) in
    let* value = map Int64.of_int int in
    return { addr; width; value })

let apply_write mem { addr; width; value } =
  match width with
  | 1 -> Vm.Memory.write_u8 mem addr (Int64.to_int value land 0xFF)
  | 2 -> Vm.Memory.write_u16 mem addr (Int64.to_int value land 0xFFFF)
  | 4 -> Vm.Memory.write_u32 mem addr (Int64.to_int value land 0xFFFFFFFF)
  | _ -> Vm.Memory.write_u64 mem addr value

let print_writes ws =
  String.concat "; "
    (List.map (fun w -> Printf.sprintf "w%d@0x%x=%Ld" w.width w.addr w.value) ws)

let arb_writes n = QCheck.make ~print:print_writes QCheck.Gen.(list_size (int_range 0 n) gen_write)

let prop_dirty_covers_all_writes =
  QCheck.Test.make ~name:"dirty pages cover every write" ~count:300 (arb_writes 40)
    (fun writes ->
      let mem = Vm.Memory.create ~size:mem_size in
      Vm.Memory.clear_dirty mem;
      List.iter (apply_write mem) writes;
      let dirty = Vm.Memory.dirty_pages mem in
      List.for_all
        (fun w ->
          let first = w.addr / Vm.Memory.page_size in
          let last = (w.addr + w.width - 1) / Vm.Memory.page_size in
          List.mem first dirty && List.mem last dirty)
        writes)

let prop_clear_dirty_resets =
  QCheck.Test.make ~name:"clear_dirty resets tracking" ~count:200 (arb_writes 20)
    (fun writes ->
      let mem = Vm.Memory.create ~size:mem_size in
      List.iter (apply_write mem) writes;
      Vm.Memory.clear_dirty mem;
      Vm.Memory.dirty_count mem = 0)

(* ------------------------------------------------------------------ *)
(* CoW restore == full restore                                          *)
(* ------------------------------------------------------------------ *)

(* Build a snapshot from one write sequence, dirty the memory with a
   second sequence, restore with both mechanisms, and require byte-exact
   agreement of the full guest memory. *)
let prop_cow_restore_equals_full_restore =
  QCheck.Test.make ~name:"CoW restore is byte-identical to full restore" ~count:200
    (QCheck.make
       ~print:(fun (a, b) -> "init: " ^ print_writes a ^ " / dirty: " ^ print_writes b)
       QCheck.Gen.(pair (list_size (int_range 0 25) gen_write) (list_size (int_range 0 25) gen_write)))
    (fun (init_writes, dirty_writes) ->
      let store = Wasp.Snapshot_store.create () in
      (* capture a snapshot of memory after the init sequence *)
      let mem_a = Vm.Memory.create ~size:mem_size in
      let cpu_a = Vm.Cpu.create ~mem:mem_a ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ()) in
      List.iter (apply_write mem_a) init_writes;
      ignore
        (Wasp.Snapshot_store.capture store ~key:"p" ~code:Bytes.empty ~mem:mem_a ~cpu:cpu_a
           ~native_state:None);
      let entry = Option.get (Wasp.Snapshot_store.find store ~key:"p") in
      (* arm 1: CoW — memory holds the snapshot, gets dirtied, CoW-restored *)
      let mem_cow = Vm.Memory.create ~size:mem_size in
      let cpu_cow =
        Vm.Cpu.create ~mem:mem_cow ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ())
      in
      ignore (Wasp.Snapshot_store.restore entry ~mem:mem_cow ~cpu:cpu_cow);
      List.iter (apply_write mem_cow) dirty_writes;
      ignore (Wasp.Snapshot_store.restore_cow entry ~mem:mem_cow ~cpu:cpu_cow);
      (* arm 2: full restore into a clean region *)
      let mem_full = Vm.Memory.create ~size:mem_size in
      let cpu_full =
        Vm.Cpu.create ~mem:mem_full ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ())
      in
      ignore (Wasp.Snapshot_store.restore entry ~mem:mem_full ~cpu:cpu_full);
      Vm.Memory.snapshot mem_cow = Vm.Memory.snapshot mem_full)

(* ------------------------------------------------------------------ *)
(* Pool invariants                                                      *)
(* ------------------------------------------------------------------ *)

let prop_pool_counters_consistent =
  QCheck.Test.make ~name:"pool counters stay consistent" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) (oneofl [ 16 * 1024; 64 * 1024 ])))
    (fun sizes ->
      let sys = Kvmsim.Kvm.open_dev ~seed:3 () in
      let pool = Wasp.Pool.create sys ~clean:Wasp.Pool.Sync in
      List.iter
        (fun mem_size ->
          let shell, _ = Wasp.Pool.acquire pool ~mem_size ~mode:Vm.Modes.Long in
          Wasp.Pool.release pool shell)
        sizes;
      let stats = Wasp.Pool.stats pool in
      stats.Wasp.Pool.created + stats.Wasp.Pool.reused = List.length sizes
      && stats.Wasp.Pool.cleans = List.length sizes
      && Wasp.Pool.size pool = stats.Wasp.Pool.created)

let prop_pooled_shells_always_clean =
  QCheck.Test.make ~name:"a reacquired shell is always zeroed" ~count:100 (arb_writes 10)
    (fun writes ->
      let sys = Kvmsim.Kvm.open_dev ~seed:4 () in
      let pool = Wasp.Pool.create sys ~clean:Wasp.Pool.Sync in
      let shell, _ = Wasp.Pool.acquire pool ~mem_size ~mode:Vm.Modes.Long in
      List.iter (apply_write shell.Wasp.Pool.mem) writes;
      Wasp.Pool.release pool shell;
      let shell2, from_pool = Wasp.Pool.acquire pool ~mem_size ~mode:Vm.Modes.Long in
      from_pool
      && Vm.Memory.snapshot shell2.Wasp.Pool.mem = Bytes.make mem_size '\000')

let () =
  Alcotest.run "wasp-properties"
    [
      ( "policy",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mask_matches_list;
            prop_deny_all_denies_everything_but_exit;
            prop_allow_all_admits_everything;
            prop_mask_monotone;
          ] );
      ( "dirty-tracking",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dirty_covers_all_writes; prop_clear_dirty_resets ] );
      ( "cow",
        List.map QCheck_alcotest.to_alcotest [ prop_cow_restore_equals_full_restore ] );
      ( "pool",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pool_counters_consistent; prop_pooled_shells_always_clean ] );
    ]
