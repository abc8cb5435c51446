(* Tests for the Wasp runtime: images, policies, hypercall interposition,
   pooling, snapshotting, and the isolation objectives of §3. *)

module R = Wasp.Runtime

let hlt_image = Wasp.Image.of_asm_string ~name:"hlt" "hlt"

(* a virtine that reads its argument (at guest address 0), doubles it,
   and exits with the result via the exit hypercall *)
let double_image =
  Wasp.Image.of_asm_string ~name:"double"
    {|
  mov r1, 0
  ld64 r1, [r1]
  add r1, r1
  mov r0, 0      ; exit hypercall
  out 1, r0
  hlt
|}

(* echoes its input through get_data/return_data *)
let echo_data_image =
  Wasp.Image.of_asm_string ~name:"echo-data"
    {|
  mov r0, 7       ; get_data
  mov r1, 0x400   ; buffer
  mov r2, 64      ; max
  out 1, r0
  mov r2, r0      ; length
  mov r0, 8       ; return_data
  mov r1, 0x400
  out 1, r0
  mov r0, 0
  mov r1, 0
  out 1, r0
|}

let exited = function R.Exited _ -> true | R.Faulted _ | R.Fuel_exhausted -> false

(* ------------------------------------------------------------------ *)
(* Images                                                               *)
(* ------------------------------------------------------------------ *)

let test_image_defaults () =
  Alcotest.(check int) "origin 0x8000" 0x8000 hlt_image.origin;
  Alcotest.(check int) "default mem" Wasp.Layout.default_mem_size hlt_image.mem_size

let test_image_pad () =
  let img = Wasp.Image.pad_to hlt_image (1 lsl 20) in
  Alcotest.(check int) "padded size" (1 lsl 20) (Wasp.Image.size img);
  Alcotest.(check bool) "mem grows" true (img.mem_size >= (1 lsl 20) + 0x8000);
  Alcotest.check_raises "cannot shrink" (Invalid_argument "Image.pad_to: smaller than code")
    (fun () -> ignore (Wasp.Image.pad_to img 16))

let test_image_grows_mem_for_code () =
  let big = Asm.assemble [ Asm.Zero (256 * 1024); Asm.Insn Asm.SHlt ] in
  let img = Wasp.Image.of_program big in
  Alcotest.(check bool) "mem fits code" true (img.mem_size >= (256 * 1024) + 0x8000)

(* ------------------------------------------------------------------ *)
(* Basic invocation                                                     *)
(* ------------------------------------------------------------------ *)

let test_run_hlt () =
  let w = R.create () in
  let r = R.run w hlt_image () in
  Alcotest.(check bool) "exited" true (exited r.outcome);
  Alcotest.(check bool) "charged cycles" true (r.cycles > 0L)

let test_run_args_marshalling () =
  let w = R.create () in
  let r = R.run w double_image ~args:[ 21L ] () in
  Alcotest.(check int64) "2*21" 42L r.return_value

let test_run_input_bytes () =
  let w = R.create () in
  let r =
    R.run w echo_data_image
      ~policy:(Wasp.Policy.of_list [ Wasp.Hc.get_data; Wasp.Hc.return_data ])
      ~input:(Bytes.of_string "hello virtine") ()
  in
  Alcotest.(check bool) "exited" true (exited r.outcome);
  (match r.output with
  | Some b -> Alcotest.(check string) "echoed" "hello virtine" (Bytes.to_string b)
  | None -> Alcotest.fail "no output");
  Alcotest.(check int) "three hypercalls" 3 r.hypercalls

let test_run_rejects_input_and_args () =
  let w = R.create () in
  match R.run w hlt_image ~input:(Bytes.of_string "x") ~args:[ 1L ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* A long-mode boot writes up to the page directory's end at 16 KB: a
   smaller memory is an argument error before anything is provisioned,
   and a typed error from a recording of it, however it is read. *)
let test_undersized_memory_rejected () =
  let image kb =
    Wasp.Image.of_program ~name:"tiny" ~mem_size:(kb * 1024) (Asm.assemble_string ~origin:0 "hlt")
  in
  let expect_error what = function
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e ->
        let bound = "a long-mode boot writes" in
        let n = String.length bound in
        let rec has i = i + n <= String.length e && (String.sub e i n = bound || has (i + 1)) in
        Alcotest.(check bool) (what ^ " names the bound: " ^ e) true (has 0)
  in
  List.iter
    (fun kb ->
      let img = image kb and w = R.create () in
      Alcotest.check_raises (Printf.sprintf "%d KB run" kb)
        (Invalid_argument
           (Printf.sprintf "Runtime.run: mem_size %d is under the 16384 bytes a long-mode boot writes"
              (kb * 1024)))
        (fun () -> ignore (R.run w img ()));
      Alcotest.check_raises (Printf.sprintf "%d KB native run" kb)
        (Invalid_argument
           (Printf.sprintf
              "Runtime.run_native: mem_size %d is under the 16384 bytes a long-mode boot writes"
              (kb * 1024)))
        (fun () ->
          ignore (R.run_native w ~name:"tiny" ~mem_size:(kb * 1024) ~body:(fun _ ~restored:_ -> 0L) ()));
      Alcotest.(check int) "nothing provisioned" 0 (Kvmsim.Kvm.stats (R.kvm w)).vm_creations;
      let rc = Result.get_ok (R.recording ~seed:1 img Wasp.Policy.deny_all ~fuel:1000) in
      Profiler.Replay.finish rc ~cycles:0L ~outcome:"exited" ~return_value:0L;
      let text = Profiler.Replay.to_string rc in
      expect_error "of_recording" (R.of_recording rc);
      expect_error "corpus entry" (Fuzz.Corpus.of_vxr_string text);
      expect_error "replay" (R.replay text))
    [ 8; 12; 14 ];
  let r = R.run (R.create ()) (image 16) () in
  match r.outcome with
  | R.Exited _ -> ()
  | _ -> Alcotest.fail "a 16 KB long-mode image boots and halts"

let test_faulting_virtine_is_contained () =
  let img =
    Wasp.Image.of_asm_string ~name:"wild" "mov r1, 0x3000000\nld64 r0, [r1]\nhlt"
  in
  let w = R.create () in
  let r = R.run w img () in
  (match r.outcome with
  | R.Faulted _ -> ()
  | _ -> Alcotest.fail "expected fault");
  (* the runtime survives and can run other virtines *)
  let r2 = R.run w double_image ~args:[ 5L ] () in
  Alcotest.(check int64) "still works" 10L r2.return_value

let test_runaway_virtine_killed () =
  let img = Wasp.Image.of_asm_string ~name:"spin" "spin:\njmp spin" in
  let w = R.create () in
  let r = R.run w img ~fuel:10_000 () in
  Alcotest.(check bool) "fuel exhausted" true (r.outcome = R.Fuel_exhausted)

(* ------------------------------------------------------------------ *)
(* Policy enforcement (§3: default deny)                                *)
(* ------------------------------------------------------------------ *)

let open_file_image =
  (* tries to open "/etc/secret" and exits with the fd (or error) *)
  Wasp.Image.of_asm_string ~name:"open"
    {|
  mov r0, 3        ; open
  mov r1, path
  out 1, r0
  mov r1, r0
  mov r0, 0        ; exit(fd)
  out 1, r0
path:
  .string "/etc/secret"
|}

let test_default_deny () =
  let w = R.create () in
  Wasp.Hostenv.add_file (R.env w) ~path:"/etc/secret" "top secret";
  let r = R.run w open_file_image () in
  Alcotest.(check int64) "open denied" Wasp.Hc.err_denied r.return_value;
  Alcotest.(check int) "denial recorded" 1 r.denied

let test_exit_always_allowed () =
  let w = R.create () in
  let img =
    Wasp.Image.of_asm_string ~name:"exit"
      "mov r0, 0\nmov r1, 123\nout 1, r0\nhlt"
  in
  let r = R.run w img () in
  Alcotest.(check int64) "exit code" 123L r.return_value;
  Alcotest.(check int) "no denials" 0 r.denied

let test_allow_all_policy () =
  let w = R.create () in
  Wasp.Hostenv.add_file (R.env w) ~path:"/etc/secret" "top secret";
  let r = R.run w open_file_image ~policy:Wasp.Policy.allow_all () in
  Alcotest.(check bool) "open succeeded" true (r.return_value >= 3L)

let test_mask_policy () =
  let allows = Wasp.Policy.allows in
  let p = Wasp.Policy.of_list [ Wasp.Hc.read; Wasp.Hc.write ] in
  Alcotest.(check bool) "read allowed" true (allows p Wasp.Hc.read);
  Alcotest.(check bool) "write allowed" true (allows p Wasp.Hc.write);
  Alcotest.(check bool) "open denied" false (allows p Wasp.Hc.open_);
  Alcotest.(check bool) "exit always" true (allows p Wasp.Hc.exit_)

let test_hc_of_name () =
  for n = 0 to Wasp.Hc.count - 1 do
    Alcotest.(check (option int)) (Wasp.Hc.name n) (Some n) (Wasp.Hc.of_name (Wasp.Hc.name n))
  done;
  List.iter
    (fun s -> Alcotest.(check (option int)) s None (Wasp.Hc.of_name s))
    [ "raed"; ""; "READ"; Wasp.Hc.name Wasp.Hc.count ]

let test_custom_policy_predicate () =
  let p = Wasp.Policy.Custom (fun nr -> nr = Wasp.Hc.stat) in
  Alcotest.(check bool) "stat" true (Wasp.Policy.allows p Wasp.Hc.stat);
  Alcotest.(check bool) "read" false (Wasp.Policy.allows p Wasp.Hc.read)

let test_custom_handler_overrides () =
  let w = R.create () in
  let img =
    Wasp.Image.of_asm_string ~name:"custom"
      "mov r0, 5\nmov r1, 0\nout 1, r0\nmov r1, r0\nmov r0, 0\nout 1, r0"
  in
  let handlers nr =
    if nr = Wasp.Hc.stat then Some (fun _inv _args -> 7777L) else None
  in
  let r = R.run w img ~policy:(Wasp.Policy.of_list [ Wasp.Hc.stat ]) ~handlers () in
  Alcotest.(check int64) "custom handler result" 7777L r.return_value

let test_denied_hypercalls_counted_separately () =
  (* a virtine that tries open twice then exits 0 *)
  let img =
    Wasp.Image.of_asm_string ~name:"open2"
      {|
  mov r0, 3
  mov r1, p
  out 1, r0
  mov r0, 3
  mov r1, p
  out 1, r0
  mov r0, 0
  mov r1, 0
  out 1, r0
p:
  .string "f"
|}
  in
  let w = R.create () in
  let r = R.run w img () in
  Alcotest.(check int) "3 hypercalls" 3 r.hypercalls;
  Alcotest.(check int) "2 denied" 2 r.denied

(* ------------------------------------------------------------------ *)
(* Handler input validation (§3.2: hostile arguments)                   *)
(* ------------------------------------------------------------------ *)

let test_evil_pointer_rejected () =
  (* write(1, ptr=beyond guest memory, len) must return EFAULT, not read
     host memory *)
  let img =
    Wasp.Image.of_asm_string ~name:"evil"
      {|
  mov r0, 2          ; write
  mov r1, 1          ; fd 1
  mov r2, 0x3f00000  ; far outside guest RAM (but inside the 1GB map)
  mov r3, 16
  out 1, r0
  mov r1, r0
  mov r0, 0
  out 1, r0
|}
  in
  let w = R.create () in
  let r = R.run w img ~policy:Wasp.Policy.allow_all () in
  Alcotest.(check int64) "EFAULT" Wasp.Hc.err_fault r.return_value;
  Alcotest.(check int) "violation recorded" 1 r.pointer_violations

let test_evil_length_rejected () =
  let img =
    Wasp.Image.of_asm_string ~name:"evil-len"
      {|
  mov r0, 2
  mov r1, 1
  mov r2, 0x400
  mov r3, -1       ; negative length
  out 1, r0
  mov r1, r0
  mov r0, 0
  out 1, r0
|}
  in
  let w = R.create () in
  let r = R.run w img ~policy:Wasp.Policy.allow_all () in
  Alcotest.(check int64) "EFAULT" Wasp.Hc.err_fault r.return_value

let test_unterminated_path_rejected () =
  (* open() with a path pointer into a region with no NUL terminator *)
  let img =
    Wasp.Image.of_asm_string ~name:"evil-path"
      {|
  mov r4, 0x400
  mov r5, 0
fill:
  st8 [r4+0], 65
  add r4, 1
  add r5, 1
  cmp r5, 8192
  jlt fill
  mov r0, 3
  mov r1, 0x400
  out 1, r0
  mov r1, r0
  mov r0, 0
  out 1, r0
|}
  in
  let w = R.create () in
  let r = R.run w img ~policy:Wasp.Policy.allow_all () in
  Alcotest.(check int64) "EFAULT" Wasp.Hc.err_fault r.return_value

let test_get_data_once_only () =
  let img =
    Wasp.Image.of_asm_string ~name:"get2"
      {|
  mov r0, 7
  mov r1, 0x400
  mov r2, 32
  out 1, r0
  mov r0, 7
  mov r1, 0x400
  mov r2, 32
  out 1, r0
  mov r1, r0
  mov r0, 0
  out 1, r0
|}
  in
  let w = R.create () in
  let r =
    R.run w img ~policy:Wasp.Policy.allow_all ~input:(Bytes.of_string "data") ()
  in
  Alcotest.(check int64) "second get_data EINVAL" Wasp.Hc.err_inval r.return_value

(* ------------------------------------------------------------------ *)
(* Pooling (§5.2)                                                       *)
(* ------------------------------------------------------------------ *)

let test_pool_reuse () =
  let w = R.create () in
  let r1 = R.run w hlt_image () in
  let r2 = R.run w hlt_image () in
  Alcotest.(check bool) "first is cold" false r1.from_pool;
  Alcotest.(check bool) "second reuses" true r2.from_pool;
  let stats = R.pool_stats w in
  Alcotest.(check int) "one creation" 1 stats.created;
  Alcotest.(check int) "one reuse" 1 stats.reused

let test_pool_reuse_is_cheaper () =
  let w = R.create () in
  let r1 = R.run w hlt_image () in
  let r2 = R.run w hlt_image () in
  Alcotest.(check bool)
    (Printf.sprintf "cold %Ld > warm %Ld" r1.cycles r2.cycles)
    true (r1.cycles > r2.cycles)

let test_pool_disabled () =
  let w = R.create ~pool:false () in
  ignore (R.run w hlt_image ());
  let r2 = R.run w hlt_image () in
  Alcotest.(check bool) "never from pool" false r2.from_pool;
  Alcotest.(check int) "two creations" 2 (R.pool_stats w).created

let test_pool_clean_no_leak () =
  (* A virtine writes a secret into memory; the next virtine in the same
     shell must not be able to read it (§3.1 data secrecy). *)
  let writer =
    Wasp.Image.of_asm_string ~name:"writer" "mov r1, 0x500\nst64 [r1], 0x5ec3e7\nhlt"
  in
  let reader =
    Wasp.Image.of_asm_string ~name:"reader"
      "mov r1, 0x500\nld64 r2, [r1]\nmov r0, 0\nmov r1, r2\nout 1, r0"
  in
  let w = R.create () in
  ignore (R.run w writer ());
  let r = R.run w reader () in
  Alcotest.(check bool) "shell was reused" true r.from_pool;
  Alcotest.(check int64) "secret wiped" 0L r.return_value

let test_async_clean_charges_background () =
  let w = R.create ~clean:`Async () in
  ignore (R.run w hlt_image ());
  ignore (R.run w hlt_image ());
  let stats = R.pool_stats w in
  Alcotest.(check bool) "background work recorded" true (stats.background_cycles > 0L)

let test_async_clean_faster_invocations () =
  let run_mode clean =
    let w = R.create ~clean () in
    ignore (R.run w hlt_image ());
    let r = R.run w hlt_image () in
    r.cycles
  in
  let sync = run_mode `Sync and async = run_mode `Async in
  Alcotest.(check bool) (Printf.sprintf "async %Ld < sync %Ld" async sync) true (async < sync)

let test_release_clears_dirty_bitmap () =
  (* release zeroes the guest region, which itself touches every page;
     the bitmap must be reset afterwards or the next CoW restore sees the
     whole image as dirty *)
  let sys = Kvmsim.Kvm.open_dev ~seed:11 () in
  let pool = Wasp.Pool.create sys ~clean:Wasp.Pool.Sync in
  let s, _ = Wasp.Pool.acquire pool ~mem_size:65536 ~mode:Vm.Modes.Real in
  Vm.Memory.write_u64 s.Wasp.Pool.mem 0x2000 0xBEEFL;
  Alcotest.(check bool) "writes dirtied pages" true
    (Vm.Memory.dirty_count s.Wasp.Pool.mem > 0);
  Wasp.Pool.release pool s;
  Alcotest.(check int) "recycled shell starts clean" 0
    (Vm.Memory.dirty_count s.Wasp.Pool.mem)

let test_cow_restore_after_pool_reuse () =
  (* regression: fill_zero in release marked all 16 pages dirty; without
     clear_dirty a snapshot captured on the recycled shell made
     restore_cow copy the entire 64 KB image instead of the one page the
     run actually touched *)
  let sys = Kvmsim.Kvm.open_dev ~seed:12 () in
  let pool = Wasp.Pool.create sys ~clean:Wasp.Pool.Sync in
  let s1, _ = Wasp.Pool.acquire pool ~mem_size:65536 ~mode:Vm.Modes.Real in
  Vm.Memory.write_u64 s1.Wasp.Pool.mem 0x8000 0x5EC3E7L;
  Wasp.Pool.release pool s1;
  let s2, from_pool = Wasp.Pool.acquire pool ~mem_size:65536 ~mode:Vm.Modes.Real in
  Alcotest.(check bool) "shell recycled" true from_pool;
  (* one invocation initializes a single page, then snapshots *)
  Vm.Memory.write_u64 s2.Wasp.Pool.mem 0 0x42L;
  let cpu = Kvmsim.Kvm.vcpu_cpu s2.Wasp.Pool.vcpu in
  let store = Wasp.Snapshot_store.create () in
  ignore
    (Wasp.Snapshot_store.capture store ~key:"k" ~code:Bytes.empty ~mem:s2.Wasp.Pool.mem ~cpu
       ~native_state:None);
  let entry = Option.get (Wasp.Snapshot_store.find store ~key:"k") in
  let pages, bytes =
    Wasp.Snapshot_store.restore_cow entry ~mem:s2.Wasp.Pool.mem ~cpu
  in
  Alcotest.(check int) "only the touched page is copied" 1 pages;
  Alcotest.(check int) "one page of bytes" Vm.Memory.page_size bytes

(* ------------------------------------------------------------------ *)
(* Snapshotting (§5.2, Figure 7)                                        *)
(* ------------------------------------------------------------------ *)

(* initializes r10 with an expensive loop, snapshots, then doubles the
   argument; post-snapshot runs skip the loop *)
let snap_image =
  Wasp.Image.of_asm_string ~name:"snap"
    {|
  mov r10, 0
init:
  add r10, 1
  cmp r10, 5000
  jlt init
  mov r0, 6        ; snapshot hypercall
  out 1, r0
  mov r1, 0
  ld64 r1, [r1]
  add r1, r10      ; argument + 5000 (r10 restored from snapshot)
  mov r0, 0
  out 1, r0
|}

let snap_policy = Wasp.Policy.of_list [ Wasp.Hc.snapshot ]

(* Bad arguments are rejected before a shell is claimed: an oversized
   input, or [~input] together with [~args], takes nothing from the pool
   or, under [`Cow], from the retained table, so the next good run
   still gets the one shell back. *)
let test_bad_arguments_claim_no_shell () =
  List.iter
    (fun reset ->
      let w = R.create ~reset () in
      let run ?input ?(args = [ 1L ]) () =
        R.run w snap_image ~policy:snap_policy ~snapshot_key:"k" ?input ~args ()
      in
      ignore (run ());
      ignore (run ());
      let rejected what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s accepted" what
      in
      rejected "oversized input" (fun () ->
          run ~input:(Bytes.create (Wasp.Layout.arg_area_size + 1)) ~args:[] ());
      rejected "input with args" (fun () -> run ~input:(Bytes.of_string "x") ());
      let r = run () in
      let stats = R.pool_stats w in
      Alcotest.(check bool) "next run restores on the pooled shell" true r.R.from_pool;
      Alcotest.(check int) "one shell ever created" 1 stats.Wasp.Pool.created;
      Alcotest.(check int64) "and it answers" 5001L r.R.return_value)
    [ `Memcpy; `Cow ]

let test_snapshot_correctness () =
  let w = R.create () in
  let r1 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"snap" ~args:[ 1L ] () in
  let r2 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"snap" ~args:[ 2L ] () in
  Alcotest.(check int64) "first run" 5001L r1.return_value;
  Alcotest.(check int64) "second run (from snapshot)" 5002L r2.return_value;
  Alcotest.(check bool) "restored" true r2.from_snapshot;
  Alcotest.(check bool) "first was not" false r1.from_snapshot

let test_snapshot_skips_init () =
  let w = R.create () in
  let r1 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"s2" ~args:[ 0L ] () in
  let r2 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"s2" ~args:[ 0L ] () in
  Alcotest.(check bool)
    (Printf.sprintf "snapshot run %Ld much cheaper than first %Ld" r2.cycles r1.cycles)
    true
    (Int64.to_float r2.cycles < 0.5 *. Int64.to_float r1.cycles)

let test_snapshot_isolation_between_runs () =
  (* State mutated after the snapshot must not leak into the next run:
     both runs add exactly 5000. *)
  let w = R.create () in
  ignore (R.run w snap_image ~policy:snap_policy ~snapshot_key:"s3" ~args:[ 7L ] ());
  let r2 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"s3" ~args:[ 7L ] () in
  let r3 = R.run w snap_image ~policy:snap_policy ~snapshot_key:"s3" ~args:[ 7L ] () in
  Alcotest.(check int64) "run 2" 5007L r2.return_value;
  Alcotest.(check int64) "run 3" 5007L r3.return_value

let test_snapshot_requires_policy () =
  let w = R.create () in
  let r = R.run w snap_image ~snapshot_key:"s4" ~args:[ 1L ] () in
  (* snapshot hypercall denied under deny-all: r0 = -1, execution continues *)
  Alcotest.(check int) "denied" 1 r.denied;
  Alcotest.(check bool) "no snapshot captured" true
    (Wasp.Snapshot_store.find (R.snapshots w) ~key:"s4" = None)

let test_drop_snapshot () =
  let w = R.create () in
  ignore (R.run w snap_image ~policy:snap_policy ~snapshot_key:"s5" ~args:[ 1L ] ());
  R.drop_snapshot w ~key:"s5";
  let r = R.run w snap_image ~policy:snap_policy ~snapshot_key:"s5" ~args:[ 1L ] () in
  Alcotest.(check bool) "boots again" false r.from_snapshot

let test_snapshot_without_key_is_einval () =
  let w = R.create () in
  let img =
    Wasp.Image.of_asm_string ~name:"snap-nokey"
      "mov r0, 6\nout 1, r0\nmov r1, r0\nmov r0, 0\nout 1, r0"
  in
  let r = R.run w img ~policy:snap_policy () in
  Alcotest.(check int64) "EINVAL" Wasp.Hc.err_inval r.return_value

let test_runtime_stats_aggregate () =
  let w = R.create () in
  ignore (R.run w double_image ~args:[ 1L ] ());
  ignore (R.run w double_image ~args:[ 2L ] ());
  ignore (R.run w (Wasp.Image.of_asm_string ~name:"wild" "mov r1, 0x3000000\nld64 r0, [r1]\nhlt") ());
  ignore (R.run w open_file_image ());
  let s = R.stats w in
  Alcotest.(check int) "invocations" 4 s.R.invocations;
  Alcotest.(check int) "exits" 3 s.R.exited;
  Alcotest.(check int) "faults" 1 s.R.faulted;
  Alcotest.(check bool) "hypercalls counted" true (s.R.hypercalls >= 4);
  Alcotest.(check int) "denied counted" 1 s.R.denied

(* ------------------------------------------------------------------ *)
(* Copy-on-write reset (§7.2 / SEUSS-style)                             *)
(* ------------------------------------------------------------------ *)

let test_cow_correctness () =
  (* results must be identical to memcpy-reset across many invocations *)
  let run_mode reset =
    let w = R.create ~reset () in
    List.map
      (fun arg ->
        (R.run w snap_image ~policy:snap_policy ~snapshot_key:"cow1" ~args:[ arg ] ())
          .R.return_value)
      [ 1L; 2L; 3L; 4L; 5L ]
  in
  Alcotest.(check (list int64)) "same results" (run_mode `Memcpy) (run_mode `Cow)

let test_cow_cheaper_than_memcpy_for_big_footprint () =
  (* a virtine with a large initialized footprint but small per-run dirty
     set: CoW restores only the dirty pages *)
  let big_image =
    Wasp.Image.of_asm_string ~name:"big"
      ({|
  mov r10, 0x9000
  mov r11, 0
fill:
  st64 [r10+0], 0x41
  add r10, 4096
  add r11, 1
  cmp r11, 100
  jlt fill
  mov r0, 6
  out 1, r0
  mov r1, 0
  ld64 r1, [r1]
  mov r0, 0
  out 1, r0
|})
      ~mem_size:(1024 * 1024)
  in
  let measure reset =
    let w = R.create ~reset ~clean:`Async () in
    ignore (R.run w big_image ~policy:snap_policy ~snapshot_key:"cowbig" ~args:[ 1L ] ());
    ignore (R.run w big_image ~policy:snap_policy ~snapshot_key:"cowbig" ~args:[ 1L ] ());
    (R.run w big_image ~policy:snap_policy ~snapshot_key:"cowbig" ~args:[ 1L ] ()).R.cycles
  in
  let memcpy = measure `Memcpy and cow = measure `Cow in
  Alcotest.(check bool)
    (Printf.sprintf "cow %Ld < memcpy %Ld" cow memcpy)
    true
    (Int64.to_float cow < 0.7 *. Int64.to_float memcpy)

let test_cow_no_leak_between_invocations () =
  (* state written after the snapshot must be reset by the CoW restore *)
  let w = R.create ~reset:`Cow () in
  let rs =
    List.map
      (fun arg ->
        (R.run w snap_image ~policy:snap_policy ~snapshot_key:"cow2" ~args:[ arg ] ())
          .R.return_value)
      [ 7L; 7L; 7L ]
  in
  Alcotest.(check (list int64)) "no accumulation" [ 5007L; 5007L; 5007L ] rs

(* Counted after a full major collection: OCaml 5 adds a direct
   major-heap allocation to [major_words] only at a later collection. *)
let direct_major_words f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  f ();
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  s1.major_words -. s0.major_words -. (s1.promoted_words -. s0.promoted_words)

let test_cow_reset_allocation_budget () =
  (* a CoW reset keeps the 16 buffers the last run dirtied and the next
     run's 16 CoW breaks take them back: no 4 KB page buffer (513 words,
     past the minor heap's limit) is allocated once warm. Measured: 0
     direct major words per invocation, against 9,252 when every break
     allocated its buffer. The budget is one page buffer per 16
     invocations, since 25% over 0 is no margin at all. *)
  let src =
    Printf.sprintf
      "char buf[65536] = \"%s\";\n\
       virtine int touch(int k) { int i = 0; while (i < k) { buf[i * 4096] = 98; i = i + 1; } \
       return k; }"
      (String.make 65535 'a')
  in
  let c = Vcc.Compile.compile ~name:"cowbudget" src in
  let w = R.create ~reset:`Cow () in
  let touch () =
    let r = Vcc.Compile.invoke w c "touch" [ 16L ] () in
    Alcotest.(check int64) "touch(16)" 16L r.R.return_value
  in
  for _ = 1 to 5 do
    touch ()
  done;
  let per_run = direct_major_words (fun () -> for _ = 1 to 200 do touch () done) /. 200.0 in
  if per_run > 32.0 then
    Alcotest.failf "%.1f direct major words per CoW-reset invocation (budget 32)" per_run

(* Minor words [f] allocates, counted as the direct major words above. *)
let minor_words f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  f ();
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  s1.minor_words -. s0.minor_words

let test_detached_run_allocation_budget () =
  (* with no hub, probe engine or profiler attached, an invocation builds
     no span args, sample names, boxed sample values or probe contexts,
     and its flight-ring notes are formatted only if the ring is read.
     Measured on a warm, snapshotted fib(4): 529 minor words per run,
     against 623 when each exit's note was formatted at once. *)
  let c =
    Vcc.Compile.compile ~name:"fibbudget"
      "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }"
  in
  let vi = Option.get (Vcc.Compile.find_virtine c "fib") in
  let image = vi.Vcc.Compile.image and policy = vi.Vcc.Compile.policy in
  let w = R.create ~clean:`Async () in
  let run () = R.run w image ~policy ~args:[ 4L ] ~snapshot_key:image.Wasp.Image.name () in
  for _ = 1 to 50 do
    ignore (run ())
  done;
  let r = run () in
  Alcotest.(check (pair int64 bool)) "fib(4), restored" (3L, true) (r.R.return_value, r.R.from_snapshot);
  let run () = ignore (run ()) in
  let per_run = minor_words (fun () -> for _ = 1 to 2_000 do run () done) /. 2_000.0 in
  if per_run > 560.0 then
    Alcotest.failf "%.1f minor words per detached fib(4) run (budget 560)" per_run

(* A retained shell must not outlive its key's snapshot: after the
   snapshot is dropped (between invocations, or while the key's shell is
   running), [writer] dirties 0xC000 on a pooled shell, and [reader]'s
   next run under k must still see a zeroed page, as under memcpy reset. *)
let test_cow_dropped_snapshot_no_leak () =
  let reader =
    Wasp.Image.of_asm_string ~name:"reader"
      {|
  mov r0, 6        ; snapshot
  out 1, r0
  mov r1, 0xC000
  ld64 r1, [r1]
  mov r0, 0        ; exit(r1)
  out 1, r0
|}
  and writer =
    Wasp.Image.of_asm_string ~name:"writer"
      {|
  mov r1, 0xC000
  st64 [r1], 0x5EC12E7
  mov r0, 6        ; snapshot
  out 1, r0
  mov r0, 0
  mov r1, 0
  out 1, r0
|}
  in
  let read ?(policy = snap_policy) ?inspect w =
    (R.run w reader ~policy ~snapshot_key:"k" ?inspect ()).R.return_value
  in
  let write w = ignore (R.run w writer ~policy:snap_policy ~snapshot_key:"x" ()) in
  let between w =
    ignore (read w);
    R.drop_snapshot w ~key:"k";
    (* boots under k without capturing a new snapshot *)
    ignore (read ~policy:Wasp.Policy.deny_all w);
    write w
  and mid_run w =
    ignore (read w);
    ignore (read ~inspect:(fun _ _ -> R.drop_snapshot w ~key:"k") w);
    write w;
    ignore (read w);
    write w
  in
  List.iter
    (fun (reset, mode) ->
      List.iter
        (fun (steps, dropped) ->
          let w = R.create ~reset () in
          steps w;
          Alcotest.(check int64)
            (Printf.sprintf "%s, dropped %s: reader sees a zeroed page" mode dropped)
            0L (read w))
        [ (between, "between runs"); (mid_run, "mid-run") ])
    [ (`Memcpy, "memcpy"); (`Cow, "cow") ]

let test_cow_via_compiler () =
  (* the full vcc path under both reset modes must agree *)
  let src = "virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }" in
  let run reset =
    let c = Vcc.Compile.compile src in
    let w = R.create ~reset () in
    List.map
      (fun n ->
        (Vcc.Compile.invoke w c "fib" [ Int64.of_int n ] ()).R.return_value)
      [ 8; 9; 10; 8 ]
  in
  Alcotest.(check (list int64)) "memcpy == cow" (run `Memcpy) (run `Cow)

let test_cow_native_payload () =
  (* CoW also applies to native payloads (the JS isolate path) *)
  let w = R.create ~reset:`Cow ~clean:`Async () in
  let isolate =
    Vjs.Isolate.create w ~key:"cowjs" ~source:"function f(d) { return d.length; }" ~entry:"f"
  in
  let results =
    List.map
      (fun s -> fst (Vjs.Isolate.invoke isolate ~input:(Bytes.of_string s)))
      [ "ab"; "abcd"; "x" ]
  in
  Alcotest.(check bool) "all correct" true
    (results = [ Ok "2"; Ok "4"; Ok "1" ]);
  Alcotest.(check int) "single shell" 1 (R.pool_stats w).Wasp.Pool.created

let test_cow_retains_shell () =
  let w = R.create ~reset:`Cow () in
  ignore (R.run w snap_image ~policy:snap_policy ~snapshot_key:"cow3" ~args:[ 1L ] ());
  ignore (R.run w snap_image ~policy:snap_policy ~snapshot_key:"cow3" ~args:[ 1L ] ());
  ignore (R.run w snap_image ~policy:snap_policy ~snapshot_key:"cow3" ~args:[ 1L ] ());
  let stats = R.pool_stats w in
  Alcotest.(check int) "one shell ever created" 1 stats.Wasp.Pool.created

(* ------------------------------------------------------------------ *)
(* Paged snapshots: footprints, store bounds, O(dirty) restores         *)
(* ------------------------------------------------------------------ *)

let mem_with_cpu ?(size = 64 * 1024) () =
  let mem = Vm.Memory.create ~size in
  let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock:(Cycles.Clock.create ()) in
  (mem, cpu)

let test_footprint_all_zero () =
  let mem, cpu = mem_with_cpu () in
  let store = Wasp.Snapshot_store.create () in
  let fp =
    Wasp.Snapshot_store.capture store ~key:"z" ~code:Bytes.empty ~mem ~cpu ~native_state:None
  in
  Alcotest.(check int) "all-zero image has footprint 0" 0 fp;
  let entry = Option.get (Wasp.Snapshot_store.find store ~key:"z") in
  Alcotest.(check int) "entry agrees" 0 entry.Wasp.Snapshot_store.footprint;
  (* restoring the empty image into a dirtied memory still zeroes it *)
  Vm.Memory.write_u64 mem 0x5000 0xFFL;
  ignore (Wasp.Snapshot_store.restore entry ~mem ~cpu);
  Alcotest.(check int64) "restored to zeros" 0L (Vm.Memory.read_u64 mem 0x5000)

let test_footprint_mid_page () =
  let mem, cpu = mem_with_cpu () in
  Vm.Memory.write_u8 mem 100 0xAA;
  let store = Wasp.Snapshot_store.create () in
  let fp =
    Wasp.Snapshot_store.capture store ~key:"m" ~code:Bytes.empty ~mem ~cpu ~native_state:None
  in
  Alcotest.(check int) "footprint ends mid-page after last nonzero byte" 101 fp

let test_dirty_page_past_footprint_restores_to_zeros () =
  let mem, cpu = mem_with_cpu () in
  Vm.Memory.write_u64 mem 0 0x1234L;
  let store = Wasp.Snapshot_store.create () in
  ignore
    (Wasp.Snapshot_store.capture store ~key:"p" ~code:Bytes.empty ~mem ~cpu ~native_state:None);
  let entry = Option.get (Wasp.Snapshot_store.find store ~key:"p") in
  Vm.Memory.clear_dirty mem;
  (* dirty a page entirely beyond the snapshot's footprint *)
  Vm.Memory.write_u64 mem 0x8000 0xBADL;
  let pages, _ = Wasp.Snapshot_store.restore_cow entry ~mem ~cpu in
  Alcotest.(check int) "the stray page is restored" 1 pages;
  Alcotest.(check int64) "beyond-footprint page back to zeros" 0L
    (Vm.Memory.read_u64 mem 0x8000);
  Alcotest.(check int64) "in-footprint data intact" 0x1234L (Vm.Memory.read_u64 mem 0)

let test_snapshot_store_lru_eviction () =
  let w = R.create ~snapshot_capacity:2 () in
  let hub = Telemetry.Hub.create ~clock:(R.clock w) () in
  R.set_telemetry w (Some hub);
  (* snapshot immediately, so the first run under a key captures it and
     later runs restore it (refreshing its LRU stamp) *)
  let img =
    Wasp.Image.of_asm_string ~name:"lru-snap" "mov r0, 6\nout 1, r0\nmov r0, 0\nout 1, r0"
  in
  let run key = ignore (R.run w img ~policy:Wasp.Policy.allow_all ~snapshot_key:key ()) in
  let prom () = Telemetry.Prometheus.to_text (Telemetry.Hub.metrics hub) in
  let has_line text line = List.mem line (String.split_on_char '\n' text) in
  let contains text sub =
    let n = String.length sub and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  let store = R.snapshots w in
  run "a";
  run "b";
  (* restore "a" so "b" is the LRU victim when "c" arrives *)
  run "a";
  Alcotest.(check bool) "no evictions series before the first eviction" false
    (contains (prom ()) "wasp_snapshot_store_evictions_total");
  run "c";
  Alcotest.(check int) "bounded at capacity" 2 (Wasp.Snapshot_store.count store);
  Alcotest.(check bool) "LRU key evicted" true
    (Wasp.Snapshot_store.find store ~key:"b" = None);
  Alcotest.(check bool) "recently used key kept" true
    (Wasp.Snapshot_store.find store ~key:"a" <> None);
  Alcotest.(check int) "eviction counted" 1 (Wasp.Snapshot_store.evictions store);
  Alcotest.(check bool) "evictions series at 1" true
    (has_line (prom ()) "wasp_snapshot_store_evictions_total 1");
  let gauge name =
    match Telemetry.Metrics.find (Telemetry.Hub.metrics hub) name with
    | Some (Telemetry.Metrics.Gauge g) -> int_of_float g.Telemetry.Metrics.g_value
    | _ -> Alcotest.failf "gauge %s not exported" name
  in
  Alcotest.(check int) "entries gauge" 2 (gauge "wasp_snapshot_store_entries");
  Alcotest.(check bool) "bytes gauge tracks footprints" true
    (gauge "wasp_snapshot_store_bytes" > 0);
  R.drop_snapshot w ~key:"a";
  Alcotest.(check int) "drop republishes the entries gauge" 1
    (gauge "wasp_snapshot_store_entries")

(* a guest that snapshots immediately, then dirties exactly [k] pages *)
let dirty_k_image ~k ~size =
  let src =
    Printf.sprintf
      {|
  mov r0, 6
  out 1, r0
  mov r1, %d
  mov r2, 0x20000
loop:
  st64 [r2+0], 0x77
  add r2, 4096
  sub r1, 1
  cmp r1, 0
  jgt loop
  mov r0, 0
  out 1, r0
|}
      k
  in
  let base =
    Wasp.Image.of_asm_string
      ~name:(Printf.sprintf "dirty%d-%d" k size)
      ~mem_size:(size + (256 * 1024))
      src
  in
  let code_len = Bytes.length base.Wasp.Image.code in
  let img = Wasp.Image.pad_to base size in
  (* nonzero filler: the whole image is footprint, so an O(footprint)
     restore would scale with [size] *)
  Bytes.fill img.Wasp.Image.code code_len (size - code_len) '\x21';
  img

let test_warm_restore_cost_flat_in_image_size () =
  (* the acceptance criterion of the paged store: with a fixed dirty set,
     warm CoW restore cost must not scale with the image *)
  let warm size =
    let w = R.create ~reset:`Cow ~clean:`Async () in
    let img = dirty_k_image ~k:4 ~size in
    let key = Printf.sprintf "flat-%d" size in
    ignore (R.run w img ~policy:snap_policy ~snapshot_key:key ());
    ignore (R.run w img ~policy:snap_policy ~snapshot_key:key ());
    Int64.to_float (R.run w img ~policy:snap_policy ~snapshot_key:key ()).R.cycles
  in
  let small = warm (256 * 1024) and large = warm (4 * 1024 * 1024) in
  Alcotest.(check bool)
    (Printf.sprintf "16x image, warm cost %.0f vs %.0f" small large)
    true
    (large < 1.5 *. small)

(* ------------------------------------------------------------------ *)
(* Native payloads                                                      *)
(* ------------------------------------------------------------------ *)

type Wasp.Univ.t += Test_state of int ref

let test_native_basic () =
  let w = R.create () in
  let r =
    R.run_native w ~name:"native" ~policy:Wasp.Policy.allow_all
      ~body:(fun ctx ~restored ->
        Alcotest.(check bool) "no snapshot yet" true (restored = None);
        R.Native_ctx.charge ctx 1000;
        let addr = R.Native_ctx.alloc ctx 64 in
        Vm.Memory.write_u64 (R.Native_ctx.mem ctx) addr 99L;
        Vm.Memory.read_u64 (R.Native_ctx.mem ctx) addr)
      ()
  in
  Alcotest.(check int64) "native result" 99L r.return_value;
  Alcotest.(check bool) "cycles include charge" true (r.cycles >= 1000L)

let test_native_hypercall_policy () =
  let w = R.create () in
  let r =
    R.run_native w ~name:"native-deny"
      ~body:(fun ctx ~restored:_ ->
        R.Native_ctx.hypercall ctx Wasp.Hc.open_ [| 0L |])
      ()
  in
  Alcotest.(check int64) "denied" Wasp.Hc.err_denied r.return_value;
  Alcotest.(check int) "counted" 1 r.denied

let test_native_snapshot_state () =
  let w = R.create () in
  let setup_runs = ref 0 in
  let invoke () =
    R.run_native w ~name:"native-snap" ~policy:(Wasp.Policy.of_list [ Wasp.Hc.snapshot ])
      ~snapshot_key:"njs"
      ~body:(fun ctx ~restored ->
        match restored with
        | Some (Test_state counter) -> Int64.of_int !counter
        | Some _ -> Alcotest.fail "wrong state"
        | None ->
            incr setup_runs;
            (* expensive init, then snapshot *)
            R.Native_ctx.charge ctx 100_000;
            let addr = R.Native_ctx.alloc ctx 4096 in
            Vm.Memory.write_u64 (R.Native_ctx.mem ctx) addr 1L;
            R.Native_ctx.offer_snapshot_state ctx (fun () -> Test_state (ref 42));
            ignore (R.Native_ctx.hypercall ctx Wasp.Hc.snapshot [||]);
            0L)
      ()
  in
  let r1 = invoke () in
  let r2 = invoke () in
  Alcotest.(check int) "setup ran once" 1 !setup_runs;
  Alcotest.(check int64) "restored state" 42L r2.return_value;
  Alcotest.(check bool) "snapshot cheaper" true (r2.cycles < r1.cycles);
  Alcotest.(check int64) "first ran setup" 0L r1.return_value

let test_native_get_return_data () =
  let w = R.create () in
  let r =
    R.run_native w ~name:"native-data"
      ~policy:(Wasp.Policy.of_list [ Wasp.Hc.get_data; Wasp.Hc.return_data ])
      ~input:(Bytes.of_string "abc")
      ~body:(fun ctx ~restored:_ ->
        let buf = R.Native_ctx.alloc ctx 64 in
        let n =
          R.Native_ctx.hypercall ctx Wasp.Hc.get_data [| Int64.of_int buf; 64L |]
        in
        (* uppercase in guest memory *)
        let mem = R.Native_ctx.mem ctx in
        for i = 0 to Int64.to_int n - 1 do
          Vm.Memory.write_u8 mem (buf + i) (Vm.Memory.read_u8 mem (buf + i) - 32)
        done;
        R.Native_ctx.hypercall ctx Wasp.Hc.return_data [| Int64.of_int buf; n |])
      ()
  in
  match r.output with
  | Some b -> Alcotest.(check string) "uppercased" "ABC" (Bytes.to_string b)
  | None -> Alcotest.fail "no output"

let () =
  Alcotest.run "wasp"
    [
      ( "image",
        [
          Alcotest.test_case "defaults" `Quick test_image_defaults;
          Alcotest.test_case "padding" `Quick test_image_pad;
          Alcotest.test_case "mem grows for code" `Quick test_image_grows_mem_for_code;
        ] );
      ( "invocation",
        [
          Alcotest.test_case "hlt" `Quick test_run_hlt;
          Alcotest.test_case "argument marshalling" `Quick test_run_args_marshalling;
          Alcotest.test_case "input bytes via get/return_data" `Quick test_run_input_bytes;
          Alcotest.test_case "input xor args" `Quick test_run_rejects_input_and_args;
          Alcotest.test_case "undersized memory is a typed error" `Quick
            test_undersized_memory_rejected;
          Alcotest.test_case "fault contained" `Quick test_faulting_virtine_is_contained;
          Alcotest.test_case "runaway killed" `Quick test_runaway_virtine_killed;
          Alcotest.test_case "aggregate stats" `Quick test_runtime_stats_aggregate;
        ] );
      ( "policy",
        [
          Alcotest.test_case "default deny" `Quick test_default_deny;
          Alcotest.test_case "exit always allowed" `Quick test_exit_always_allowed;
          Alcotest.test_case "allow all" `Quick test_allow_all_policy;
          Alcotest.test_case "mask" `Quick test_mask_policy;
          Alcotest.test_case "hypercall names round-trip" `Quick test_hc_of_name;
          Alcotest.test_case "custom predicate" `Quick test_custom_policy_predicate;
          Alcotest.test_case "custom handler" `Quick test_custom_handler_overrides;
          Alcotest.test_case "denials counted" `Quick test_denied_hypercalls_counted_separately;
        ] );
      ( "validation",
        [
          Alcotest.test_case "evil pointer" `Quick test_evil_pointer_rejected;
          Alcotest.test_case "evil length" `Quick test_evil_length_rejected;
          Alcotest.test_case "unterminated path" `Quick test_unterminated_path_rejected;
          Alcotest.test_case "get_data once" `Quick test_get_data_once_only;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
          Alcotest.test_case "reuse cheaper" `Quick test_pool_reuse_is_cheaper;
          Alcotest.test_case "disabled" `Quick test_pool_disabled;
          Alcotest.test_case "no data leak across reuse" `Quick test_pool_clean_no_leak;
          Alcotest.test_case "async clean background" `Quick test_async_clean_charges_background;
          Alcotest.test_case "async faster" `Quick test_async_clean_faster_invocations;
          Alcotest.test_case "release clears dirty bitmap" `Quick
            test_release_clears_dirty_bitmap;
          Alcotest.test_case "cow restore after pool reuse" `Quick
            test_cow_restore_after_pool_reuse;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "correctness" `Quick test_snapshot_correctness;
          Alcotest.test_case "skips init" `Quick test_snapshot_skips_init;
          Alcotest.test_case "isolation between runs" `Quick test_snapshot_isolation_between_runs;
          Alcotest.test_case "requires policy" `Quick test_snapshot_requires_policy;
          Alcotest.test_case "drop snapshot" `Quick test_drop_snapshot;
          Alcotest.test_case "no key is EINVAL" `Quick test_snapshot_without_key_is_einval;
          Alcotest.test_case "allocation budget: detached fib(4) run" `Quick
            test_detached_run_allocation_budget;
        ] );
      ( "cow-reset",
        [
          Alcotest.test_case "correctness" `Quick test_cow_correctness;
          Alcotest.test_case "cheaper for big footprints" `Quick
            test_cow_cheaper_than_memcpy_for_big_footprint;
          Alcotest.test_case "no leak between invocations" `Quick
            test_cow_no_leak_between_invocations;
          Alcotest.test_case "retains shell" `Quick test_cow_retains_shell;
          Alcotest.test_case "dropped snapshot does not leak a retained shell" `Quick
            test_cow_dropped_snapshot_no_leak;
          Alcotest.test_case "cow via compiler" `Quick test_cow_via_compiler;
          Alcotest.test_case "cow native payload" `Quick test_cow_native_payload;
          Alcotest.test_case "allocation budget: 16 CoW breaks per run" `Quick
            test_cow_reset_allocation_budget;
          Alcotest.test_case "bad arguments claim no shell" `Quick
            test_bad_arguments_claim_no_shell;
        ] );
      ( "paged-snapshots",
        [
          Alcotest.test_case "all-zero footprint" `Quick test_footprint_all_zero;
          Alcotest.test_case "footprint ends mid-page" `Quick test_footprint_mid_page;
          Alcotest.test_case "dirty page past footprint" `Quick
            test_dirty_page_past_footprint_restores_to_zeros;
          Alcotest.test_case "store LRU eviction + gauges" `Quick
            test_snapshot_store_lru_eviction;
          Alcotest.test_case "warm restore flat in image size" `Quick
            test_warm_restore_cost_flat_in_image_size;
        ] );
      ( "native",
        [
          Alcotest.test_case "basic" `Quick test_native_basic;
          Alcotest.test_case "hypercall policy" `Quick test_native_hypercall_policy;
          Alcotest.test_case "snapshot state" `Quick test_native_snapshot_state;
          Alcotest.test_case "get/return data" `Quick test_native_get_return_data;
        ] );
    ]
