(* Tests for guest memory, processor modes, paging/GDT construction, the
   boot sequencer, and CPU execution semantics. *)

(* execute on the engine every production caller runs *)
let run_cpu ?fuel cpu = Vm.Translate.run ?fuel (Vm.Translate.create cpu)

let run_asm ?(mode = Vm.Modes.Long) ?(mem_size = 64 * 1024) ?(setup = fun _ -> ()) src =
  let p = Asm.assemble_string src in
  let mem = Vm.Memory.create ~size:mem_size in
  Vm.Memory.write_bytes mem ~off:p.origin p.code;
  let clock = Cycles.Clock.create () in
  let cpu = Vm.Cpu.create ~mem ~mode ~clock in
  Vm.Cpu.set_pc cpu p.entry;
  Vm.Cpu.set_sp cpu 0x8000;
  setup cpu;
  let exit = run_cpu cpu in
  (exit, cpu, mem, clock)

let check_halt_r0 name expected (exit, cpu, _, _) =
  (match exit with
  | Vm.Cpu.Halt -> ()
  | other -> Alcotest.failf "%s: unexpected exit %s" name (Format.asprintf "%a" Vm.Cpu.pp_exit other));
  Alcotest.(check int64) name expected (Vm.Cpu.get_reg cpu 0)

(* ------------------------------------------------------------------ *)
(* Memory                                                               *)
(* ------------------------------------------------------------------ *)

let test_mem_rw_roundtrip () =
  let m = Vm.Memory.create ~size:64 in
  Vm.Memory.write_u8 m 0 0xAB;
  Vm.Memory.write_u16 m 2 0xBEEF;
  Vm.Memory.write_u32 m 4 0xDEADBEEF;
  Vm.Memory.write_u64 m 8 0x1122334455667788L;
  Alcotest.(check int) "u8" 0xAB (Vm.Memory.read_u8 m 0);
  Alcotest.(check int) "u16" 0xBEEF (Vm.Memory.read_u16 m 2);
  Alcotest.(check int) "u32" 0xDEADBEEF (Vm.Memory.read_u32 m 4);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Vm.Memory.read_u64 m 8)

let test_mem_little_endian () =
  let m = Vm.Memory.create ~size:16 in
  Vm.Memory.write_u32 m 0 0x04030201;
  Alcotest.(check int) "byte 0" 1 (Vm.Memory.read_u8 m 0);
  Alcotest.(check int) "byte 3" 4 (Vm.Memory.read_u8 m 3)

let test_mem_bounds () =
  let m = Vm.Memory.create ~size:16 in
  Alcotest.check_raises "oob read" (Vm.Memory.Fault { addr = 16; size = 1 }) (fun () ->
      ignore (Vm.Memory.read_u8 m 16));
  Alcotest.check_raises "straddling u64" (Vm.Memory.Fault { addr = 12; size = 8 })
    (fun () -> ignore (Vm.Memory.read_u64 m 12));
  Alcotest.check_raises "negative" (Vm.Memory.Fault { addr = -1; size = 1 }) (fun () ->
      ignore (Vm.Memory.read_u8 m (-1)))

let test_mem_bounds_overflow () =
  (* addr + size near max_int must fault, not wrap negative and pass the
     bounds check *)
  let m = Vm.Memory.create ~size:16 in
  Alcotest.check_raises "u64 read at max_int-4"
    (Vm.Memory.Fault { addr = max_int - 4; size = 8 })
    (fun () -> ignore (Vm.Memory.read_u64 m (max_int - 4)));
  Alcotest.check_raises "u8 read at max_int"
    (Vm.Memory.Fault { addr = max_int; size = 1 })
    (fun () -> ignore (Vm.Memory.read_u8 m max_int));
  Alcotest.check_raises "u64 write at max_int-4"
    (Vm.Memory.Fault { addr = max_int - 4; size = 8 })
    (fun () -> Vm.Memory.write_u64 m (max_int - 4) 1L);
  Alcotest.check_raises "bytes write at max_int-7"
    (Vm.Memory.Fault { addr = max_int - 7; size = 8 })
    (fun () -> Vm.Memory.write_bytes m ~off:(max_int - 7) (Bytes.make 8 'x'))

let test_mem_cstring () =
  let m = Vm.Memory.create ~size:32 in
  Vm.Memory.write_bytes m ~off:4 (Bytes.of_string "hello\000");
  Alcotest.(check string) "cstring" "hello" (Vm.Memory.read_cstring m ~off:4 ~max:16)

let test_mem_cstring_unterminated () =
  let m = Vm.Memory.create ~size:8 in
  Vm.Memory.write_bytes m ~off:0 (Bytes.of_string "xxxxxxxx");
  match Vm.Memory.read_cstring m ~off:0 ~max:8 with
  | exception Vm.Memory.Fault _ -> ()
  | s -> Alcotest.failf "expected fault, got %S" s

let test_mem_fill_zero () =
  let m = Vm.Memory.create ~size:64 in
  Vm.Memory.write_u64 m 8 0x1234L;
  Vm.Memory.fill_zero m;
  Alcotest.(check int64) "zeroed" 0L (Vm.Memory.read_u64 m 8)

let test_mem_snapshot_restore () =
  let m = Vm.Memory.create ~size:64 in
  Vm.Memory.write_u64 m 0 42L;
  let snap = Vm.Memory.snapshot m in
  Vm.Memory.write_u64 m 0 7L;
  Vm.Memory.restore m snap;
  Alcotest.(check int64) "restored" 42L (Vm.Memory.read_u64 m 0)

(* ------------------------------------------------------------------ *)
(* Paged store: residency, CoW, page cache                              *)
(* ------------------------------------------------------------------ *)

let test_mem_lazy_residency () =
  let m = Vm.Memory.create ~size:(64 * 1024) in
  (* reads never materialize: a fresh memory stays entirely zero pages *)
  Alcotest.(check int64) "reads zero" 0L (Vm.Memory.read_u64 m 0x8000);
  let s = Vm.Memory.page_stats m in
  Alcotest.(check int) "no resident pages after reads" 0 s.Vm.Memory.resident_pages;
  Alcotest.(check int) "16 pages total" 16 s.Vm.Memory.total_pages;
  (* one store materializes exactly one page, as a demand-zero fill *)
  Vm.Memory.write_u8 m 0x8000 1;
  let s = Vm.Memory.page_stats m in
  Alcotest.(check int) "one owned page" 1 s.Vm.Memory.resident_pages;
  Alcotest.(check int) "counted as zero fill" 1 s.Vm.Memory.zero_fills;
  Alcotest.(check int) "not a CoW fault" 0 s.Vm.Memory.cow_faults;
  Alcotest.(check int) "resident bytes = one page" Vm.Memory.page_size
    (Vm.Memory.resident_bytes m)

let test_mem_cow_fault_and_hook () =
  let m = Vm.Memory.create ~size:(64 * 1024) in
  Vm.Memory.write_u64 m 0 0xAAL;
  Vm.Memory.write_u64 m 8192 0xBBL;
  let img = Vm.Memory.capture m in
  (* capture published both pages: the live memory now shares them *)
  let s = Vm.Memory.page_stats m in
  Alcotest.(check int) "owned pages published" 0 s.Vm.Memory.resident_pages;
  Alcotest.(check int) "two shared pages" 2 s.Vm.Memory.shared_pages;
  Alcotest.(check int) "image holds both" 2 (Vm.Memory.image_resident_pages img);
  let faults = ref [] in
  Vm.Memory.set_fault_hook m
    (Some (fun ~shared ~page -> faults := (shared, page) :: !faults));
  (* writing a shared page breaks it private and fires the hook *)
  Vm.Memory.write_u8 m 8200 7;
  Alcotest.(check (list (pair bool int))) "CoW hook fired" [ (true, 2) ] !faults;
  let s = Vm.Memory.page_stats m in
  Alcotest.(check int) "one CoW fault" 1 s.Vm.Memory.cow_faults;
  (* the break copied the page: old content preserved, new byte landed *)
  Alcotest.(check int) "new byte landed" 7 (Vm.Memory.read_u8 m 8200);
  Alcotest.(check int64) "rest of page preserved" 0xBBL (Vm.Memory.read_u64 m 8192);
  let m2 = Vm.Memory.create ~size:(64 * 1024) in
  ignore (Vm.Memory.restore_image m2 img);
  Alcotest.(check int64) "image unaffected by the break" 0xBBL (Vm.Memory.read_u64 m2 8192)

let test_mem_straddling_write_dirties_both_pages () =
  let m = Vm.Memory.create ~size:(64 * 1024) in
  Vm.Memory.clear_dirty m;
  let addr = Vm.Memory.page_size - 4 in
  Vm.Memory.write_u64 m addr 0x1122334455667788L;
  Alcotest.(check int64) "straddling roundtrip" 0x1122334455667788L
    (Vm.Memory.read_u64 m addr);
  Alcotest.(check (list int)) "both pages dirty" [ 0; 1 ] (Vm.Memory.dirty_pages m)

let test_mem_page_cache_dedup () =
  Vm.Memory.Page_cache.reset ();
  let fill m = Vm.Memory.write_bytes m ~off:0 (Bytes.make 8192 '\x42') in
  let a = Vm.Memory.create ~size:(64 * 1024) in
  fill a;
  ignore (Vm.Memory.capture a);
  let entries_after_first = Vm.Memory.Page_cache.entries () in
  (* both 0x42 pages have identical content: one cache entry *)
  Alcotest.(check int) "identical pages intern once" 1 entries_after_first;
  let b = Vm.Memory.create ~size:(64 * 1024) in
  fill b;
  ignore (Vm.Memory.capture b);
  Alcotest.(check int) "second memory adds nothing" entries_after_first
    (Vm.Memory.Page_cache.entries ());
  Alcotest.(check bool) "dedup hits recorded" true (Vm.Memory.Page_cache.hits () > 0)

let test_mem_restore_cow_byte_identical () =
  (* satellite: the CoW restore path must reproduce the captured bytes
     exactly, without intermediate copies *)
  let m = Vm.Memory.create ~size:(64 * 1024) in
  for i = 0 to (16 * 1024) - 1 do
    Vm.Memory.write_u8 m i (i * 31 land 0xFF)
  done;
  let img = Vm.Memory.capture m in
  let golden = Vm.Memory.snapshot m in
  Vm.Memory.clear_dirty m;
  (* dirty a few pages, including one past the data *)
  Vm.Memory.write_u64 m 100 0xDEADL;
  Vm.Memory.write_u64 m 9000 0xBEEFL;
  Vm.Memory.write_u64 m 40000 0xCAFEL;
  let pages, bytes = Vm.Memory.restore_image_cow m img in
  Alcotest.(check int) "three pages restored" 3 pages;
  Alcotest.(check int) "logical bytes = pages * page_size"
    (3 * Vm.Memory.page_size) bytes;
  Alcotest.(check bool) "restored bytes identical" true
    (Bytes.equal golden (Vm.Memory.snapshot m))

let test_mem_eager_and_lazy_restore_identical () =
  let m = Vm.Memory.create ~size:(64 * 1024) in
  for i = 0 to 999 do
    Vm.Memory.write_u8 m (i * 17) ((i * 7) land 0xFF)
  done;
  let img = Vm.Memory.capture m in
  let golden = Vm.Memory.snapshot m in
  let lazy_m = Vm.Memory.create ~size:(64 * 1024) in
  let eager_m = Vm.Memory.create ~size:(64 * 1024) in
  let f1 = Vm.Memory.restore_image lazy_m img in
  let f2 = Vm.Memory.restore_image ~eager:true eager_m img in
  Alcotest.(check int) "same footprint" f1 f2;
  Alcotest.(check bool) "lazy restore byte-identical" true
    (Bytes.equal golden (Vm.Memory.snapshot lazy_m));
  Alcotest.(check bool) "eager restore byte-identical" true
    (Bytes.equal golden (Vm.Memory.snapshot eager_m));
  (* eager owns its pages; lazy still references shared ones *)
  Alcotest.(check int) "lazy holds no private pages" 0
    (Vm.Memory.page_stats lazy_m).Vm.Memory.resident_pages;
  Alcotest.(check bool) "eager materialized copies" true
    ((Vm.Memory.page_stats eager_m).Vm.Memory.resident_pages > 0)

let test_mem_reset_zero_drops_residency () =
  let m = Vm.Memory.create ~size:(64 * 1024) in
  Vm.Memory.write_u64 m 0 1L;
  Vm.Memory.write_u64 m 30000 2L;
  Vm.Memory.reset_zero m;
  Alcotest.(check int) "no resident pages" 0
    (Vm.Memory.page_stats m).Vm.Memory.resident_pages;
  Alcotest.(check int) "dirty set clear" 0 (Vm.Memory.dirty_count m);
  Alcotest.(check int64) "reads zero" 0L (Vm.Memory.read_u64 m 30000)

(* ------------------------------------------------------------------ *)
(* Modes                                                                *)
(* ------------------------------------------------------------------ *)

let test_mode_masks () =
  Alcotest.(check int64) "real" 0x1234L (Vm.Modes.mask Vm.Modes.Real 0xABCD1234L);
  Alcotest.(check int64) "protected" 0xABCD1234L
    (Vm.Modes.mask Vm.Modes.Protected 0x99ABCD1234L);
  Alcotest.(check int64) "long" Int64.min_int (Vm.Modes.mask Vm.Modes.Long Int64.min_int)

let test_mode_sext () =
  Alcotest.(check int64) "real negative" (-1L) (Vm.Modes.sext Vm.Modes.Real 0xFFFFL);
  Alcotest.(check int64) "protected negative" (-1L)
    (Vm.Modes.sext Vm.Modes.Protected 0xFFFFFFFFL);
  Alcotest.(check int64) "positive unchanged" 5L (Vm.Modes.sext Vm.Modes.Real 5L)

let test_mode_limits () =
  Alcotest.(check int) "real 1MB" (1 lsl 20) (Vm.Modes.address_limit Vm.Modes.Real);
  Alcotest.(check int) "long 1GB mapped" (1 lsl 30) (Vm.Modes.address_limit Vm.Modes.Long)

(* ------------------------------------------------------------------ *)
(* GDT + paging                                                         *)
(* ------------------------------------------------------------------ *)

let test_gdt_descriptor_roundtrip () =
  let d = Vm.Gdt.flat_code ~long:true in
  let d' = Vm.Gdt.decode_descriptor (Vm.Gdt.encode_descriptor d) in
  Alcotest.(check bool) "executable" d.executable d'.executable;
  Alcotest.(check bool) "long bit" d.long_mode d'.long_mode;
  Alcotest.(check int) "limit" d.limit d'.limit;
  Alcotest.(check int) "base" d.base d'.base

let test_gdt_known_encoding () =
  (* Flat 32-bit code segment is the classic 0x00CF9A000000FFFF. *)
  let q = Vm.Gdt.encode_descriptor (Vm.Gdt.flat_code ~long:false) in
  Alcotest.(check int64) "classic descriptor" 0x00CF9A000000FFFFL q

let test_gdt_write () =
  let m = Vm.Memory.create ~size:4096 in
  let n = Vm.Gdt.write m ~long:true in
  Alcotest.(check int) "24 bytes" 24 n;
  Alcotest.(check int64) "null descriptor" 0L (Vm.Memory.read_u64 m Vm.Gdt.base_addr)

let test_paging_identity () =
  let m = Vm.Memory.create ~size:(64 * 1024) in
  let stores = Vm.Paging.build_identity_map m in
  Alcotest.(check int) "514 stores (1 PML4 + 1 PDPT + 512 PD)" 514 stores;
  List.iter
    (fun addr ->
      match Vm.Paging.translate m addr with
      | Some phys -> Alcotest.(check int) (Printf.sprintf "identity at 0x%x" addr) addr phys
      | None -> Alcotest.failf "unmapped at 0x%x" addr)
    [ 0; 0x8000; 0x1F_FFFF; 0x20_0000; 0x3FFF_FFFF ]

let test_paging_unmapped_beyond_1gb () =
  let m = Vm.Memory.create ~size:(64 * 1024) in
  ignore (Vm.Paging.build_identity_map m);
  Alcotest.(check bool) "1GB unmapped" true (Vm.Paging.translate m (1 lsl 30) = None)

(* ------------------------------------------------------------------ *)
(* Boot                                                                 *)
(* ------------------------------------------------------------------ *)

let boot target =
  let mem = Vm.Memory.create ~size:(64 * 1024) in
  let clock = Cycles.Clock.create () in
  let rng = Cycles.Rng.create ~seed:1 in
  let comps = Vm.Boot.perform ~mem ~clock ~rng ~target in
  (comps, clock, mem)

let test_boot_real_minimal () =
  let comps, _, _ = boot Vm.Modes.Real in
  Alcotest.(check int) "only first instruction" 1 (List.length comps)

let test_boot_protected_components () =
  let comps, _, _ = boot Vm.Modes.Protected in
  let names = List.map (fun c -> c.Vm.Boot.name) comps in
  Alcotest.(check bool) "no paging" true (not (List.mem "paging ident. map" names));
  Alcotest.(check bool) "has gdt" true (List.mem "load 32-bit gdt" names)

let test_boot_long_components () =
  let comps, _, mem = boot Vm.Modes.Long in
  let names = List.map (fun c -> c.Vm.Boot.name) comps in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    Vm.Boot.component_names;
  (* the page tables must really be there *)
  Alcotest.(check bool) "identity map built" true (Vm.Paging.translate mem 0x8000 = Some 0x8000)

let test_boot_cost_ordering () =
  let real, _, _ = boot Vm.Modes.Real in
  let prot, _, _ = boot Vm.Modes.Protected in
  let long, _, _ = boot Vm.Modes.Long in
  let t c = Vm.Boot.total_cost c in
  Alcotest.(check bool) "real < protected" true (t real < t prot);
  Alcotest.(check bool) "protected < long" true (t prot < t long)

let test_boot_long_total_near_paper () =
  (* Table 1 sums to ~36.5K cycles; allow jitter. *)
  let comps, clock, _ = boot Vm.Modes.Long in
  let total = Vm.Boot.total_cost comps in
  Alcotest.(check bool)
    (Printf.sprintf "long boot %d cycles in [30K, 45K]" total)
    true
    (total > 30_000 && total < 45_000);
  Alcotest.(check int64) "clock charged" (Int64.of_int total) (Cycles.Clock.now clock)

(* ------------------------------------------------------------------ *)
(* CPU semantics                                                        *)
(* ------------------------------------------------------------------ *)

let test_cpu_arith () =
  run_asm "mov r0, 7\nmov r1, 5\nadd r0, r1\nmul r0, 3\nsub r0, 1\nhlt"
  |> check_halt_r0 "(7+5)*3-1" 35L

let test_cpu_div_rem () =
  run_asm "mov r0, 17\ndiv r0, 5\nmov r1, 17\nrem r1, 5\nadd r0, r1\nhlt"
  |> check_halt_r0 "17/5 + 17%5" 5L

let test_cpu_div_by_zero_faults () =
  let exit, _, _, _ = run_asm "mov r0, 1\nmov r1, 0\ndiv r0, r1\nhlt" in
  match exit with
  | Vm.Cpu.Fault (Vm.Cpu.Division_by_zero _) -> ()
  | other -> Alcotest.failf "expected div fault, got %s" (Format.asprintf "%a" Vm.Cpu.pp_exit other)

let test_cpu_signed_division () =
  (* -7 / 2 = -3 in long mode (round toward zero) *)
  run_asm "mov r0, -7\ndiv r0, 2\nhlt" |> fun (exit, cpu, m, c) ->
  check_halt_r0 "-7/2" (-3L) (exit, cpu, m, c)

let test_cpu_logic_shifts () =
  run_asm "mov r0, 0xF0\nand r0, 0x3C\nor r0, 1\nxor r0, 0xFF\nshl r0, 4\nhlt"
  |> check_halt_r0 "logic" (Int64.of_int (((0xF0 land 0x3C lor 1) lxor 0xFF) lsl 4))

let test_cpu_sar_vs_shr () =
  let exit, cpu, _, _ = run_asm "mov r0, -16\nsar r0, 2\nmov r1, -16\nshr r1, 60\nhlt" in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt expected");
  Alcotest.(check int64) "sar" (-4L) (Vm.Cpu.get_reg cpu 0);
  Alcotest.(check int64) "shr logical" 15L (Vm.Cpu.get_reg cpu 1)

let test_cpu_real_mode_wraps_16bit () =
  let exit, cpu, _, _ =
    run_asm ~mode:Vm.Modes.Real "mov r0, 65535\nadd r0, 1\nhlt"
  in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt expected");
  Alcotest.(check int64) "wraps to 0" 0L (Vm.Cpu.get_reg cpu 0)

let test_cpu_protected_mode_wraps_32bit () =
  let exit, cpu, _, _ =
    run_asm ~mode:Vm.Modes.Protected "mov r0, 0xFFFFFFFF\nadd r0, 1\nhlt"
  in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt expected");
  Alcotest.(check int64) "wraps to 0" 0L (Vm.Cpu.get_reg cpu 0)

let test_cpu_signed_compare_16bit () =
  (* In real mode, 0x8000 is negative; signed jlt must fire. *)
  let src = "mov r0, 0x8000\ncmp r0, 0\njlt neg\nmov r0, 1\nhlt\nneg:\nmov r0, 2\nhlt" in
  let exit, cpu, _, _ = run_asm ~mode:Vm.Modes.Real src in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt expected");
  Alcotest.(check int64) "took negative branch" 2L (Vm.Cpu.get_reg cpu 0)

let test_cpu_unsigned_compare () =
  let src = "mov r0, -1\ncmp r0, 1\njugt big\nmov r0, 1\nhlt\nbig:\nmov r0, 2\nhlt" in
  run_asm src |> check_halt_r0 "unsigned -1 > 1" 2L

let test_cpu_loop () =
  (* sum 1..10 *)
  let src =
    {|
  mov r0, 0
  mov r1, 10
loop:
  add r0, r1
  sub r1, 1
  cmp r1, 0
  jgt loop
  hlt
|}
  in
  run_asm src |> check_halt_r0 "sum 1..10" 55L

let test_cpu_call_ret () =
  let src =
    {|
  mov r0, 5
  call double
  call double
  hlt
double:
  add r0, r0
  ret
|}
  in
  run_asm src |> check_halt_r0 "5*4 via calls" 20L

let test_cpu_recursive_fib () =
  (* fib(10) = 55 with a genuinely recursive implementation *)
  let src =
    {|
  mov r0, 10
  call fib
  hlt
fib:
  cmp r0, 2
  jlt base
  push r0
  sub r0, 1
  call fib
  pop r1
  push r0
  mov r0, r1
  sub r0, 2
  call fib
  pop r1
  add r0, r1
  ret
base:
  ret
|}
  in
  run_asm src |> check_halt_r0 "fib(10)" 55L

let test_cpu_memory_ops () =
  let src =
    {|
  mov r1, 0x100
  st64 [r1], 0x1122334455667788
  ld8 r0, [r1]
  ld16 r2, [r1]
  ld32 r3, [r1]
  hlt
|}
  in
  let exit, cpu, _, _ = run_asm src in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt");
  Alcotest.(check int64) "ld8 zero-extends" 0x88L (Vm.Cpu.get_reg cpu 0);
  Alcotest.(check int64) "ld16" 0x7788L (Vm.Cpu.get_reg cpu 2);
  Alcotest.(check int64) "ld32" 0x55667788L (Vm.Cpu.get_reg cpu 3)

let test_cpu_push_pop_lea () =
  let src = "lea r1, [r15-16]\npush 42\npop r0\nhlt" in
  let exit, cpu, _, _ = run_asm src in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt");
  Alcotest.(check int64) "pop" 42L (Vm.Cpu.get_reg cpu 0);
  Alcotest.(check int64) "lea" (Int64.of_int (0x8000 - 16)) (Vm.Cpu.get_reg cpu 1)

let test_cpu_oob_access_faults () =
  let exit, _, _, _ = run_asm ~mem_size:(64 * 1024) "mov r1, 0x20000\nld64 r0, [r1]\nhlt" in
  match exit with
  | Vm.Cpu.Fault (Vm.Cpu.Memory_oob _) -> ()
  | other -> Alcotest.failf "expected oob fault, got %s" (Format.asprintf "%a" Vm.Cpu.pp_exit other)

let test_cpu_mode_limit_faults_long () =
  (* address beyond the 1 GB identity map page-faults in long mode *)
  let exit, _, _, _ = run_asm "mov r1, 0x40000000\nld8 r0, [r1]\nhlt" in
  match exit with
  | Vm.Cpu.Fault (Vm.Cpu.Page_fault _) -> ()
  | other -> Alcotest.failf "expected page fault, got %s" (Format.asprintf "%a" Vm.Cpu.pp_exit other)

let test_cpu_real_mode_limit () =
  let exit, _, _, _ =
    run_asm ~mode:Vm.Modes.Real ~mem_size:(2 lsl 20) "mov r1, 0x0\nld8 r0, [r1]\nhlt"
  in
  (* address computations are masked to 16 bits, so large addresses cannot
     even be formed; the plain access must succeed *)
  match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "expected halt"

let test_cpu_invalid_opcode_faults () =
  let mem = Vm.Memory.create ~size:4096 in
  Vm.Memory.write_u8 mem 0 0xEE;
  let clock = Cycles.Clock.create () in
  let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock in
  match run_cpu cpu with
  | Vm.Cpu.Fault (Vm.Cpu.Invalid_opcode _) -> ()
  | other -> Alcotest.failf "expected invalid opcode, got %s" (Format.asprintf "%a" Vm.Cpu.pp_exit other)

let test_cpu_out_exit_resumable () =
  let p = Asm.assemble_string "mov r0, 9\nout 1, r0\nmov r1, r0\nhlt" in
  let mem = Vm.Memory.create ~size:(64 * 1024) in
  Vm.Memory.write_bytes mem ~off:p.origin p.code;
  let clock = Cycles.Clock.create () in
  let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock in
  Vm.Cpu.set_pc cpu p.entry;
  Vm.Cpu.set_sp cpu 0x8000;
  let tr = Vm.Translate.create cpu in
  (match Vm.Translate.run tr with
  | Vm.Cpu.Io_out { port = 1; value = 9L } -> ()
  | other -> Alcotest.failf "expected out exit, got %s" (Format.asprintf "%a" Vm.Cpu.pp_exit other));
  (* host writes a result and resumes *)
  Vm.Cpu.set_reg cpu 0 77L;
  (match Vm.Translate.run tr with
  | Vm.Cpu.Halt -> ()
  | _ -> Alcotest.fail "expected halt after resume");
  Alcotest.(check int64) "guest saw host value" 77L (Vm.Cpu.get_reg cpu 1)

let test_cpu_fuel () =
  (* an infinite loop must be stopped by the fuel bound *)
  let p = Asm.assemble_string "spin:\njmp spin" in
  let mem = Vm.Memory.create ~size:(64 * 1024) in
  Vm.Memory.write_bytes mem ~off:p.origin p.code;
  let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ()) in
  Vm.Cpu.set_pc cpu p.entry;
  match run_cpu ~fuel:100 cpu with
  | Vm.Cpu.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out of fuel"

let test_cpu_rdtsc_monotone () =
  let src = "rdtsc r1\nmov r2, 0\nadd r2, 1\nrdtsc r3\nhlt" in
  let exit, cpu, _, _ = run_asm src in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt");
  Alcotest.(check bool) "time advanced" true
    (Int64.compare (Vm.Cpu.get_reg cpu 3) (Vm.Cpu.get_reg cpu 1) > 0)

let test_cpu_charges_cycles () =
  let _, _, _, clock = run_asm "mov r0, 1\nadd r0, 2\nhlt" in
  Alcotest.(check bool) "cycles charged" true (Cycles.Clock.now clock > 0L)

(* spin guard: default fuel test also proves jmp-to-self does not hang
   because of the fuel bound; keep it fast by using explicit fuel above. *)

(* ------------------------------------------------------------------ *)
(* Interpreter-semantics regressions (ISSUE 7 satellites)               *)
(* ------------------------------------------------------------------ *)

let test_cpu_check_range_overflow () =
  (* a base register near max_int must fault at the mode limit, not wrap
     [addr + size] negative and slip past the check into a host error *)
  let exit, _, _, _ =
    run_asm
      ~setup:(fun cpu -> Vm.Cpu.set_reg cpu 1 (Int64.of_int max_int))
      "ld64 r0, [r1]\nhlt"
  in
  match exit with
  | Vm.Cpu.Fault (Vm.Cpu.Page_fault { addr }) ->
      Alcotest.(check int) "faulting address" max_int addr
  | other ->
      Alcotest.failf "expected page fault, got %s"
        (Format.asprintf "%a" Vm.Cpu.pp_exit other)

let test_cpu_shift_count_mode_mask () =
  (* hardware masks shift counts to the operand width: 31 outside long
     mode, 63 in it *)
  let exit, cpu, _, _ =
    run_asm ~mode:Vm.Modes.Protected
      "mov r0, 1\nshl r0, 33\nmov r1, 1\nshl r1, 32\nmov r2, 0x80000000\nsar r2, 63\nhlt"
  in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt");
  Alcotest.(check int64) "protected: count 33 acts as 1" 2L (Vm.Cpu.get_reg cpu 0);
  Alcotest.(check int64) "protected: count 32 acts as 0" 1L (Vm.Cpu.get_reg cpu 1);
  Alcotest.(check int64) "protected: sar 63 acts as 31" 0xFFFFFFFFL (Vm.Cpu.get_reg cpu 2);
  let exit, cpu, _, _ =
    run_asm ~mode:Vm.Modes.Real ~mem_size:(2 lsl 20) "mov r0, 1\nshl r0, 32\nhlt"
  in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt");
  Alcotest.(check int64) "real: count 32 acts as 0" 1L (Vm.Cpu.get_reg cpu 0);
  let exit, cpu, _, _ = run_asm "mov r0, 1\nshl r0, 66\nmov r1, 1\nshl r1, 32\nhlt" in
  (match exit with Vm.Cpu.Halt -> () | _ -> Alcotest.fail "halt");
  Alcotest.(check int64) "long: count 66 acts as 2" 4L (Vm.Cpu.get_reg cpu 0);
  Alcotest.(check int64) "long: count 32 shifts" 0x100000000L (Vm.Cpu.get_reg cpu 1)

let test_cpu_ret_masks_target_real () =
  (* memory can hold unmasked values: a 64-bit return address popped in
     real mode must be truncated to 16 bits (landing on zeroed memory =
     hlt), not jump to a truncated host-int address out of range *)
  let exit, _, _, _ =
    run_asm ~mode:Vm.Modes.Real
      ~setup:(fun cpu ->
        Vm.Cpu.set_sp cpu 0x7000;
        Vm.Memory.write_u64 (Vm.Cpu.mem cpu) 0x7000 0x12345L)
      "ret"
  in
  match exit with
  | Vm.Cpu.Halt -> ()
  | other ->
      Alcotest.failf "expected halt at masked target, got %s"
        (Format.asprintf "%a" Vm.Cpu.pp_exit other)

let test_cpu_ret_oob_faults_at_limit () =
  (* a long-mode return address beyond the host int range clamps to the
     architectural limit and faults there, like jmp out of range *)
  let exit, _, _, _ =
    run_asm
      ~setup:(fun cpu ->
        Vm.Cpu.set_sp cpu 0x7000;
        Vm.Memory.write_u64 (Vm.Cpu.mem cpu) 0x7000 Int64.min_int)
      "ret"
  in
  match exit with
  | Vm.Cpu.Fault (Vm.Cpu.Page_fault { addr }) ->
      Alcotest.(check int) "faults at the 1 GB limit" (1 lsl 30) addr
  | other ->
      Alcotest.failf "expected page fault, got %s"
        (Format.asprintf "%a" Vm.Cpu.pp_exit other)

let test_cpu_callr_oob_faults_at_limit () =
  let exit, _, _, _ =
    run_asm ~setup:(fun cpu -> Vm.Cpu.set_reg cpu 1 Int64.min_int) "callr r1\nhlt"
  in
  match exit with
  | Vm.Cpu.Fault (Vm.Cpu.Page_fault { addr }) ->
      Alcotest.(check int) "faults at the 1 GB limit" (1 lsl 30) addr
  | other ->
      Alcotest.failf "expected page fault, got %s"
        (Format.asprintf "%a" Vm.Cpu.pp_exit other)

(* ------------------------------------------------------------------ *)
(* Memory content versions (translation-cache invalidation feed)        *)
(* ------------------------------------------------------------------ *)

let test_mem_page_versions () =
  let m = Vm.Memory.create ~size:(4 * 4096) in
  let v0 = Vm.Memory.page_version m 0 in
  Vm.Memory.write_u8 m 0 1;
  Alcotest.(check bool) "write bumps the page version" true
    (Vm.Memory.page_version m 0 > v0);
  let v0 = Vm.Memory.page_version m 0 and v1 = Vm.Memory.page_version m 1 in
  Vm.Memory.clear_dirty m;
  Alcotest.(check int) "clear_dirty leaves versions alone" v0
    (Vm.Memory.page_version m 0);
  Vm.Memory.write_u16 m 4095 7;
  Alcotest.(check bool) "straddling write bumps both pages" true
    (Vm.Memory.page_version m 0 > v0 && Vm.Memory.page_version m 1 > v1);
  let e0 = Vm.Memory.epoch m in
  Vm.Memory.reset_zero m;
  Alcotest.(check bool) "reset_zero bumps the epoch" true (Vm.Memory.epoch m > e0)

let test_mem_restore_cow_bumps_versions () =
  let m = Vm.Memory.create ~size:(4 * 4096) in
  Vm.Memory.write_u8 m 0 0xAA;
  let img = Vm.Memory.capture m in
  Vm.Memory.clear_dirty m;
  Vm.Memory.write_u8 m 4096 1;
  let v0 = Vm.Memory.page_version m 0 and v1 = Vm.Memory.page_version m 1 in
  let pages, _ = Vm.Memory.restore_image_cow m img in
  Alcotest.(check int) "one dirty page restored" 1 pages;
  Alcotest.(check int) "clean page version unchanged" v0 (Vm.Memory.page_version m 0);
  Alcotest.(check bool) "restored page version bumped" true
    (Vm.Memory.page_version m 1 > v1)

let () =
  Alcotest.run "vm"
    [
      ( "memory",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_mem_rw_roundtrip;
          Alcotest.test_case "little endian" `Quick test_mem_little_endian;
          Alcotest.test_case "bounds" `Quick test_mem_bounds;
          Alcotest.test_case "bounds overflow" `Quick test_mem_bounds_overflow;
          Alcotest.test_case "cstring" `Quick test_mem_cstring;
          Alcotest.test_case "cstring unterminated" `Quick test_mem_cstring_unterminated;
          Alcotest.test_case "fill zero" `Quick test_mem_fill_zero;
          Alcotest.test_case "snapshot/restore" `Quick test_mem_snapshot_restore;
        ] );
      ( "paged-store",
        [
          Alcotest.test_case "lazy residency" `Quick test_mem_lazy_residency;
          Alcotest.test_case "CoW fault + hook" `Quick test_mem_cow_fault_and_hook;
          Alcotest.test_case "straddling write dirties both pages" `Quick
            test_mem_straddling_write_dirties_both_pages;
          Alcotest.test_case "page cache dedup" `Quick test_mem_page_cache_dedup;
          Alcotest.test_case "restore_cow byte-identical" `Quick
            test_mem_restore_cow_byte_identical;
          Alcotest.test_case "eager vs lazy restore" `Quick
            test_mem_eager_and_lazy_restore_identical;
          Alcotest.test_case "reset_zero drops residency" `Quick
            test_mem_reset_zero_drops_residency;
        ] );
      ( "modes",
        [
          Alcotest.test_case "masks" `Quick test_mode_masks;
          Alcotest.test_case "sign extension" `Quick test_mode_sext;
          Alcotest.test_case "address limits" `Quick test_mode_limits;
        ] );
      ( "gdt-paging",
        [
          Alcotest.test_case "descriptor roundtrip" `Quick test_gdt_descriptor_roundtrip;
          Alcotest.test_case "known encoding" `Quick test_gdt_known_encoding;
          Alcotest.test_case "gdt write" `Quick test_gdt_write;
          Alcotest.test_case "identity map" `Quick test_paging_identity;
          Alcotest.test_case "unmapped beyond 1GB" `Quick test_paging_unmapped_beyond_1gb;
        ] );
      ( "boot",
        [
          Alcotest.test_case "real minimal" `Quick test_boot_real_minimal;
          Alcotest.test_case "protected components" `Quick test_boot_protected_components;
          Alcotest.test_case "long components" `Quick test_boot_long_components;
          Alcotest.test_case "cost ordering" `Quick test_boot_cost_ordering;
          Alcotest.test_case "long total near paper" `Quick test_boot_long_total_near_paper;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_cpu_arith;
          Alcotest.test_case "div/rem" `Quick test_cpu_div_rem;
          Alcotest.test_case "div by zero" `Quick test_cpu_div_by_zero_faults;
          Alcotest.test_case "signed division" `Quick test_cpu_signed_division;
          Alcotest.test_case "logic and shifts" `Quick test_cpu_logic_shifts;
          Alcotest.test_case "sar vs shr" `Quick test_cpu_sar_vs_shr;
          Alcotest.test_case "real mode wraps" `Quick test_cpu_real_mode_wraps_16bit;
          Alcotest.test_case "protected mode wraps" `Quick test_cpu_protected_mode_wraps_32bit;
          Alcotest.test_case "signed compare 16-bit" `Quick test_cpu_signed_compare_16bit;
          Alcotest.test_case "unsigned compare" `Quick test_cpu_unsigned_compare;
          Alcotest.test_case "loop" `Quick test_cpu_loop;
          Alcotest.test_case "call/ret" `Quick test_cpu_call_ret;
          Alcotest.test_case "recursive fib" `Quick test_cpu_recursive_fib;
          Alcotest.test_case "memory ops" `Quick test_cpu_memory_ops;
          Alcotest.test_case "push/pop/lea" `Quick test_cpu_push_pop_lea;
          Alcotest.test_case "oob faults" `Quick test_cpu_oob_access_faults;
          Alcotest.test_case "long mode page fault" `Quick test_cpu_mode_limit_faults_long;
          Alcotest.test_case "real mode ok" `Quick test_cpu_real_mode_limit;
          Alcotest.test_case "invalid opcode" `Quick test_cpu_invalid_opcode_faults;
          Alcotest.test_case "out exit resumable" `Quick test_cpu_out_exit_resumable;
          Alcotest.test_case "fuel bound" `Quick test_cpu_fuel;
          Alcotest.test_case "rdtsc monotone" `Quick test_cpu_rdtsc_monotone;
          Alcotest.test_case "cycles charged" `Quick test_cpu_charges_cycles;
          Alcotest.test_case "range check overflow" `Quick test_cpu_check_range_overflow;
          Alcotest.test_case "shift count mode mask" `Quick
            test_cpu_shift_count_mode_mask;
          Alcotest.test_case "ret masks target (real)" `Quick
            test_cpu_ret_masks_target_real;
          Alcotest.test_case "ret faults at limit" `Quick test_cpu_ret_oob_faults_at_limit;
          Alcotest.test_case "callr faults at limit" `Quick
            test_cpu_callr_oob_faults_at_limit;
        ] );
      ( "content-versions",
        [
          Alcotest.test_case "page versions" `Quick test_mem_page_versions;
          Alcotest.test_case "restore_cow bumps versions" `Quick
            test_mem_restore_cow_bumps_versions;
        ] );
    ]
