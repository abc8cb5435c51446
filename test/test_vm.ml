(* Tests for guest memory, processor modes, paging/GDT construction, the
   boot sequencer, and CPU execution semantics. *)

(* execute on the engine every production caller runs *)
let run_cpu ?fuel cpu = Vm.Translate.run ?fuel (Vm.Translate.create ()) cpu

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
  Vm.Memory.reset_zero m;
  Alcotest.(check int64) "zeroed" 0L (Vm.Memory.read_u64 m 8);
  Alcotest.(check bool) "every byte zero" true
    (Bytes.equal (Bytes.make 64 '\000') (Vm.Memory.snapshot m))

let test_mem_snapshot_restore () =
  let m = Vm.Memory.create ~size:64 in
  Vm.Memory.write_u64 m 0 42L;
  let img = Vm.Memory.capture m in
  let snap = Vm.Memory.snapshot m in
  Vm.Memory.write_u64 m 0 7L;
  ignore (Vm.Memory.restore_image m img);
  Alcotest.(check int64) "restored" 42L (Vm.Memory.read_u64 m 0);
  Alcotest.(check bool) "restored bytes identical" true
    (Bytes.equal snap (Vm.Memory.snapshot m))

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
    (s.Vm.Memory.resident_pages * Vm.Memory.page_size)

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
  (* the cache took one buffer; the duplicate's is kept for reuse *)
  Alcotest.(check int) "duplicate buffer kept" 1 (Vm.Memory.page_stats a).spare_pages;
  let b = Vm.Memory.create ~size:(64 * 1024) in
  fill b;
  ignore (Vm.Memory.capture b);
  Alcotest.(check int) "second memory adds nothing" entries_after_first
    (Vm.Memory.Page_cache.entries ());
  Alcotest.(check int) "both its buffers kept" 2 (Vm.Memory.page_stats b).spare_pages;
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

let test_mem_recycled_pages_are_fresh () =
  (* every path that drops a private buffer keeps it, and every path
     that needs one takes a kept one first: over several cycles of
     demand-zero fills, captures, CoW breaks, eager, lazy and CoW
     restores and pool resets, the recycled memory must read as the
     model of its contents, count and fault exactly as a fresh memory
     running the same steps, and never hold more buffers than pages *)
  let npages = 8 and page = Vm.Memory.page_size in
  let size = npages * page in
  let counts m ~since:(b : Vm.Memory.page_stats) =
    let s = Vm.Memory.page_stats m in
    [ s.total_pages; s.resident_pages; s.shared_pages; s.zero_pages;
      s.cow_faults - b.cow_faults; s.zero_fills - b.zero_fills ]
  in
  (* one cycle's steps on [m]; per step: its name, page counts and the
     fault-hook calls it made *)
  let steps cycle m =
    let log = ref [] in
    Vm.Memory.set_fault_hook m (Some (fun ~shared ~page -> log := (shared, page) :: !log));
    let base = Vm.Memory.page_stats m in
    let want = Bytes.make size '\000' in
    let seen = ref [] in
    let step name f =
      log := [];
      f ();
      let what = Printf.sprintf "cycle %d, %s" cycle name in
      let s = Vm.Memory.page_stats m in
      if s.resident_pages + s.spare_pages > s.total_pages then
        Alcotest.failf "%s: %d resident + %d spare buffers > %d pages" what s.resident_pages
          s.spare_pages s.total_pages;
      Alcotest.(check bool) (what ^ ": contents") true (Bytes.equal want (Vm.Memory.snapshot m));
      seen := (name, counts m ~since:base, List.rev !log) :: !seen
    in
    let write_u8 off v =
      Vm.Memory.write_u8 m off v;
      Bytes.set want off (Char.chr v)
    in
    (* one page stays zero through the capture; in the last cycle it is
       the last page, so the image is trimmed before it *)
    let blank = cycle * 3 mod npages in
    let written p = p <> blank in
    step "zero fills" (fun () ->
        for p = 0 to npages - 1 do
          if written p then write_u8 ((p * page) + ((cycle * 97) + (p * 13)) mod page) (cycle + p + 1)
        done);
    step "whole pages" (fun () ->
        for p = 0 to npages - 1 do
          if written p && (p + cycle) mod 3 <> 0 then begin
            let c = Char.chr (0xA0 + (cycle * 8) + p) in
            Vm.Memory.write_bytes m ~off:(p * page) (Bytes.make page c);
            Bytes.fill want (p * page) page c
          end
        done);
    let img = ref None and saved = ref want in
    step "capture" (fun () ->
        img := Some (Vm.Memory.capture m);
        saved := Bytes.copy want);
    let img = Option.get !img and saved = !saved in
    (* CoW breaks of shared pages and a demand-zero fill of the blank one *)
    let breaks salt =
      for p = 0 to npages - 1 do
        if (p + cycle + salt) mod 2 = 0 || p = blank then
          write_u8 ((p * page) + 5 + (salt * 31)) (0x50 + salt)
      done
    in
    let restored () = Bytes.blit saved 0 want 0 size in
    let restore name f =
      step name (fun () ->
          f ();
          Vm.Memory.clear_dirty m;
          restored ())
    in
    step "CoW breaks" (fun () -> breaks 0);
    restore "eager restore" (fun () -> ignore (Vm.Memory.restore_image ~eager:true m img));
    step "stores after eager" (fun () -> breaks 1);
    restore "eager restore over eager" (fun () ->
        ignore (Vm.Memory.restore_image ~eager:true m img));
    restore "lazy restore" (fun () -> ignore (Vm.Memory.restore_image m img));
    step "CoW breaks after lazy" (fun () -> breaks 2);
    restore "CoW restore" (fun () -> ignore (Vm.Memory.restore_image_cow m img));
    step "CoW breaks after CoW restore" (fun () -> breaks 3);
    restore "CoW restore again" (fun () -> ignore (Vm.Memory.restore_image_cow m img));
    step "pool reset" (fun () ->
        Vm.Memory.reset_zero m;
        Bytes.fill want 0 size '\000');
    List.rev !seen
  in
  let recycled = Vm.Memory.create ~size in
  for cycle = 1 to 5 do
    let r = steps cycle recycled and f = steps cycle (Vm.Memory.create ~size) in
    List.iter2
      (fun (name, rc, rh) (_, fc, fh) ->
        let what = Printf.sprintf "cycle %d, %s" cycle name in
        Alcotest.(check (list int)) (what ^ ": page stats") fc rc;
        Alcotest.(check (list (pair bool int))) (what ^ ": fault hook calls") fh rh)
      r f;
    Alcotest.(check bool) (Printf.sprintf "cycle %d: buffers kept for reuse" cycle) true
      ((Vm.Memory.page_stats recycled).spare_pages > 0)
  done

(* [equal_bytes] against the copy it saves: [read_bytes], then
   [Bytes.equal]. Three pages, each Zero, Shared (written, then
   captured) or Owned (written after the capture); offsets at or near a
   page's end, so a compare straddles it, or anywhere; lengths 0-300.
   Each case compares the bytes as read, then with a byte differing at
   each position in turn, so every position of a word and of the tail *)
let prop_equal_bytes =
  let page = Vm.Memory.page_size in
  let gen =
    QCheck.Gen.(
      quad
        (array_size (return 3) (oneofl [ `Zero; `Shared; `Owned ]))
        (oneof [ map (fun back -> (2 * page) - back) (int_range (-8) 300); int_range 0 (3 * page) ])
        (int_range 0 300) int)
  in
  let print (kinds, off, len, seed) =
    Printf.sprintf "pages [%s], off %d, len %d, seed %d"
      (String.concat "; "
         (Array.to_list
            (Array.map (function `Zero -> "Zero" | `Shared -> "Shared" | `Owned -> "Owned") kinds)))
      off len seed
  in
  QCheck.Test.make ~name:"equal_bytes = Bytes.equal of read_bytes" ~count:300
    (QCheck.make ~print gen)
    (fun (kinds, off, len, seed) ->
      let st = Random.State.make [| seed |] in
      let m = Vm.Memory.create ~size:(3 * page) in
      let fill kind =
        Array.iteri
          (fun p k ->
            if k = kind then
              Vm.Memory.write_bytes m ~off:(p * page)
                (Bytes.init page (fun _ -> Char.chr (1 + Random.State.int st 255))))
          kinds
      in
      fill `Shared;
      ignore (Vm.Memory.capture m);
      fill `Owned;
      let count k = Array.fold_left (fun n k' -> if k' = k then n + 1 else n) 0 kinds in
      let stats = Vm.Memory.page_stats m in
      assert (stats.shared_pages = count `Shared && stats.resident_pages = count `Owned);
      let off = min off ((3 * page) - len) in
      let model b = Bytes.equal (Vm.Memory.read_bytes m ~off ~len) b in
      let b = Vm.Memory.read_bytes m ~off ~len in
      let agree () = Vm.Memory.equal_bytes m ~off b = model b in
      agree ()
      && Vm.Memory.equal_bytes m ~off b
      && List.for_all
           (fun i ->
             let c = Bytes.get b i in
             Bytes.set b i (Char.chr (Char.code c lxor (1 + Random.State.int st 255)));
             let ok = agree () && not (Vm.Memory.equal_bytes m ~off b) in
             Bytes.set b i c;
             ok)
           (List.init len Fun.id))

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

(* The table is three descriptors ending at [end_addr]: null, code, data. *)
let gdt_entry m i = Vm.Memory.read_u64 m (Vm.Gdt.end_addr - 24 + (8 * i))

(* The code descriptor boot writes for a long-mode guest decodes to a
   flat 64-bit code segment. *)
let test_gdt_descriptor_roundtrip () =
  let m = Vm.Memory.create ~size:(64 * 1024) in
  ignore
    (Vm.Boot.perform ~mem:m ~clock:(Cycles.Clock.create ()) ~rng:(Cycles.Rng.create ~seed:1)
       ~target:Vm.Modes.Long);
  let d = Vm.Gdt.decode_descriptor (gdt_entry m 1) in
  Alcotest.(check bool) "executable" true d.executable;
  Alcotest.(check bool) "long bit" true d.long_mode;
  Alcotest.(check bool) "4K granularity" true d.granularity_4k;
  Alcotest.(check int) "limit" 0xFFFFF d.limit;
  Alcotest.(check int) "base" 0 d.base;
  let data = Vm.Gdt.decode_descriptor (gdt_entry m 2) in
  Alcotest.(check bool) "data not executable" false data.executable

let test_gdt_known_encoding () =
  (* Flat 32-bit code segment is the classic 0x00CF9A000000FFFF. *)
  let m = Vm.Memory.create ~size:4096 in
  ignore
    (Vm.Boot.perform ~mem:m ~clock:(Cycles.Clock.create ()) ~rng:(Cycles.Rng.create ~seed:1)
       ~target:Vm.Modes.Protected);
  Alcotest.(check int64) "classic descriptor" 0x00CF9A000000FFFFL (gdt_entry m 1)

let test_gdt_write () =
  let m = Vm.Memory.create ~size:4096 in
  let n = Vm.Gdt.write m ~long:true in
  Alcotest.(check int) "24 bytes" 24 n;
  Alcotest.(check int64) "null descriptor" 0L (gdt_entry m 0)

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

(* The identity map as 514 single stores, the way it was written before
   the page directory went in as one copy: the reference for that copy. *)
let identity_map_by_stores m =
  let table = Int64.logor Vm.Paging.flag_present Vm.Paging.flag_writable in
  let large = Int64.logor table Vm.Paging.flag_large_page in
  Vm.Memory.write_u64 m 0x1000 (Vm.Paging.entry ~phys:0x2000 ~flags:table);
  Vm.Memory.write_u64 m 0x2000 (Vm.Paging.entry ~phys:0x3000 ~flags:table);
  for i = 0 to 511 do
    Vm.Memory.write_u64 m (0x3000 + (8 * i)) (Vm.Paging.entry ~phys:(i * (2 lsl 20)) ~flags:large)
  done;
  514

let test_paging_one_copy () =
  (* from memories in several states, the one-copy map and the 514
     stores leave the same bytes, page counts, dirty pages, content
     versions and fault-hook calls, and count the same entries *)
  let page = Vm.Memory.page_size in
  let scribble m off len = Vm.Memory.write_bytes m ~off (Bytes.make len '\x5a') in
  let states =
    [
      ("fresh", fun _ -> ());
      ("private table pages", fun m -> scribble m 0x1000 0x3000);
      ( "shared table pages",
        fun m ->
          scribble m 0 0x5000;
          ignore (Vm.Memory.capture m);
          Vm.Memory.clear_dirty m );
      ( "a shared directory beside private tables",
        fun m ->
          scribble m 0x3000 page;
          ignore (Vm.Memory.capture m);
          scribble m 0x1000 0x2000;
          Vm.Memory.clear_dirty m );
      ( "after a pool reset",
        fun m ->
          scribble m 0 0x5000;
          Vm.Memory.note_code m ~off:0x3100 ~len:16;
          Vm.Memory.reset_zero m );
      ("code on another page", fun m -> Vm.Memory.note_code m ~off:0x8000 ~len:16);
    ]
  in
  List.iter
    (fun (name, prepare) ->
      let built map =
        (* both sides capture into an empty page cache, so their dedup
           hits, and with them the kept buffers, are the same *)
        Vm.Memory.Page_cache.reset ();
        let m = Vm.Memory.create ~size:(64 * 1024) in
        prepare m;
        let hook = ref [] in
        Vm.Memory.set_fault_hook m (Some (fun ~shared ~page -> hook := (shared, page) :: !hook));
        let entries = map m in
        let s = Vm.Memory.page_stats m in
        ( entries,
          Vm.Memory.snapshot m,
          [ s.total_pages; s.resident_pages; s.shared_pages; s.zero_pages; s.spare_pages;
            s.cow_faults; s.zero_fills ],
          Vm.Memory.dirty_pages m,
          List.init 16 (Vm.Memory.page_version m),
          List.rev !hook )
      in
      let n, bytes, stats, dirty, vers, hook = built Vm.Paging.build_identity_map in
      let n', bytes', stats', dirty', vers', hook' = built identity_map_by_stores in
      let what = Printf.sprintf "%s: %s" name in
      Alcotest.(check int) (what "entries") n' n;
      Alcotest.(check bool) (what "bytes") true (Bytes.equal bytes' bytes);
      Alcotest.(check (list int)) (what "page stats") stats' stats;
      Alcotest.(check (list int)) (what "dirty pages") dirty' dirty;
      Alcotest.(check (list int)) (what "content versions") vers' vers;
      Alcotest.(check (list (pair bool int))) (what "fault hook calls") hook' hook)
    states;
  (* over translated code the stores bump the directory page's version
     once per entry and the copy once; either way a block decoded from
     it goes stale *)
  let moved map =
    let m = Vm.Memory.create ~size:(64 * 1024) in
    Vm.Memory.note_code m ~off:0x3100 ~len:16;
    let v = Vm.Memory.page_version m 3 in
    ignore (map m);
    Vm.Memory.page_version m 3 > v
  in
  Alcotest.(check (pair bool bool)) "code on the directory's page goes stale" (true, true)
    (moved Vm.Paging.build_identity_map, moved identity_map_by_stores)

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
    [
      "paging ident. map"; "protected transition"; "long transition"; "jump to 32-bit";
      "jump to 64-bit"; "load 32-bit gdt"; "first instruction";
    ];
  (* the page tables must really be there *)
  Alcotest.(check bool) "identity map built" true (Vm.Paging.translate mem 0x8000 = Some 0x8000)

(* [min_mem_size] is the bound [perform] needs: it boots a memory of
   exactly that size and faults on one a word smaller. *)
let test_boot_min_mem_size () =
  List.iter
    (fun (mode, bound) ->
      let name = Vm.Modes.to_string mode in
      Alcotest.(check int) (name ^ " bound") bound (Vm.Boot.min_mem_size mode);
      let perform size =
        Vm.Boot.perform ~mem:(Vm.Memory.create ~size) ~clock:(Cycles.Clock.create ())
          ~rng:(Cycles.Rng.create ~seed:1) ~target:mode
      in
      ignore (perform bound);
      match perform (bound - 8) with
      | _ -> Alcotest.failf "%s: booted below the bound" name
      | exception Vm.Memory.Fault _ -> ())
    [ (Vm.Modes.Protected, 0x518); (Vm.Modes.Long, 0x4000) ];
  Alcotest.(check int) "real mode writes nothing" 0 (Vm.Boot.min_mem_size Vm.Modes.Real)

let test_boot_cost_ordering () =
  let real, _, _ = boot Vm.Modes.Real in
  let prot, _, _ = boot Vm.Modes.Protected in
  let long, _, _ = boot Vm.Modes.Long in
  let t c = List.fold_left (fun acc c -> acc + c.Vm.Boot.cycles) 0 c in
  Alcotest.(check bool) "real < protected" true (t real < t prot);
  Alcotest.(check bool) "protected < long" true (t prot < t long)

let test_boot_charges_pinned () =
  (* the components each mode charges at seed 1, as they were when the
     identity map was written as 514 single stores *)
  let charged target =
    let comps, _, _ = boot target in
    List.map (fun c -> (c.Vm.Boot.name, c.Vm.Boot.cycles)) comps
  in
  let pinned = Alcotest.(list (pair string int)) in
  Alcotest.(check pinned) "real" [ ("first instruction", 76) ] (charged Vm.Modes.Real);
  Alcotest.(check pinned) "protected"
    [ ("load 32-bit gdt", 4255); ("protected transition", 3322); ("jump to 32-bit", 178);
      ("first instruction", 78) ]
    (charged Vm.Modes.Protected);
  Alcotest.(check pinned) "long"
    [ ("load 32-bit gdt", 4255); ("protected transition", 3322); ("jump to 32-bit", 178);
      ("paging ident. map", 29677); ("long transition", 694); ("jump to 64-bit", 192);
      ("first instruction", 74) ]
    (charged Vm.Modes.Long)

let test_boot_long_total_near_paper () =
  (* Table 1 sums to ~36.5K cycles; allow jitter. *)
  let comps, clock, _ = boot Vm.Modes.Long in
  let total = List.fold_left (fun acc c -> acc + c.Vm.Boot.cycles) 0 comps in
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
  let tr = Vm.Translate.create () in
  (match Vm.Translate.run tr cpu with
  | Vm.Cpu.Io_out { port = 1; value = 9L } -> ()
  | other -> Alcotest.failf "expected out exit, got %s" (Format.asprintf "%a" Vm.Cpu.pp_exit other));
  (* host writes a result and resumes *)
  Vm.Cpu.set_reg cpu 0 77L;
  (match Vm.Translate.run tr cpu with
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
  (* a page's version moves only when a write overlaps its code extent:
     the bytes translated code was decoded from *)
  let m = Vm.Memory.create ~size:(4 * 4096) in
  let v = Vm.Memory.page_version m in
  Vm.Memory.note_code m ~off:0x100 ~len:0x40;
  let v0 = v 0 in
  Vm.Memory.write_u64 m 0xF8 1L;
  Vm.Memory.write_u8 m 0x140 1;
  Vm.Memory.write_u32 m 0x800 1;
  Alcotest.(check int) "store beside code keeps the version" v0 (v 0);
  Vm.Memory.write_u8 m 0x13F 1;
  Alcotest.(check bool) "store into code bumps the version" true (v 0 > v0);
  Vm.Memory.note_code m ~off:0xFF8 ~len:0x10;
  let v0 = v 0 and v1 = v 1 in
  Vm.Memory.clear_dirty m;
  Alcotest.(check (pair int int)) "clear_dirty keeps versions" (v0, v1) (v 0, v 1);
  Vm.Memory.write_u16 m 0xFFF 7;
  Alcotest.(check bool) "straddling store bumps both pages" true (v 0 > v0 && v 1 > v1);
  let v0 = v 0 and v1 = v 1 and v2 = v 2 in
  Vm.Memory.reset_zero m;
  Alcotest.(check bool) "reset_zero bumps pages with code" true (v 0 > v0 && v 1 > v1);
  Alcotest.(check int) "reset_zero leaves code-free pages alone" v2 (v 2);
  let v0 = v 0 in
  Vm.Memory.write_u8 m 0x100 1;
  Alcotest.(check int) "reset_zero forgets the old extent" v0 (v 0)

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
          QCheck_alcotest.to_alcotest prop_equal_bytes;
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
          Alcotest.test_case "a recycled page buffer reads as a fresh one" `Quick
            test_mem_recycled_pages_are_fresh;
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
          Alcotest.test_case "the directory in one copy, as 514 stores" `Quick
            test_paging_one_copy;
          Alcotest.test_case "unmapped beyond 1GB" `Quick test_paging_unmapped_beyond_1gb;
        ] );
      ( "boot",
        [
          Alcotest.test_case "real minimal" `Quick test_boot_real_minimal;
          Alcotest.test_case "protected components" `Quick test_boot_protected_components;
          Alcotest.test_case "long components" `Quick test_boot_long_components;
          Alcotest.test_case "cost ordering" `Quick test_boot_cost_ordering;
          Alcotest.test_case "long total near paper" `Quick test_boot_long_total_near_paper;
          Alcotest.test_case "charges pinned in every mode" `Quick test_boot_charges_pinned;
          Alcotest.test_case "min_mem_size is what perform writes" `Quick test_boot_min_mem_size;
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
