(* Fuzz cases and the on-disk corpus.

   A case is everything one deterministic invocation needs — exactly
   the environment half of a .vxr recording (image bytes, mode, seed,
   policy, fuel, fault plan), which is why corpus entries and shrunk
   reproducers are stored AS .vxr files: the corpus is readable by
   [wasprun --replay], and a fixture needs no second format.

   Three input planes, tagged in the image name so scheduling can pick
   plane-appropriate mutators after a round trip through disk:

   - [Image_bytes] ("fuzz-img-*"): the code blob itself is the input.
   - [Ring_batch] ("fuzz-ring-*"): the code is a fixed trampoline that
     memcpys a data blob over the hypercall ring (header + SQEs) and
     rings the doorbell; only the blob mutates. This drives the batched
     hypercall plane with arbitrary cursors/descriptors/links.
   - [Plan] ("fuzz-plan-*"): the fault-plan text mutates (sites,
     triggers, seeds); the image stays a known-good guest. *)

type plane = Image_bytes | Ring_batch | Plan

type case = {
  plane : plane;
  mode : Vm.Modes.t;
  code : string;  (* raw image bytes, loaded at Layout.image_base *)
  seed : int;
  policy : Wasp.Policy.t;  (* serializable constructors only *)
  fuel : int;
  plan : string option;  (* Cycles.Fault_plan.to_string form *)
}

let plane_tag = function
  | Image_bytes -> "fuzz-img"
  | Ring_batch -> "fuzz-ring"
  | Plan -> "fuzz-plan"

let plane_of_name name =
  let has_prefix p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  if has_prefix "fuzz-ring" then Ring_batch
  else if has_prefix "fuzz-plan" then Plan
  else Image_bytes

let digest c =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            plane_tag c.plane;
            Vm.Modes.to_string c.mode;
            c.code;
            string_of_int c.seed;
            Option.value (Wasp.Policy.to_string c.policy) ~default:"custom";
            string_of_int c.fuel;
            Option.value c.plan ~default:"";
          ]))

let name c = Printf.sprintf "%s-%s" (plane_tag c.plane) (String.sub (digest c) 0 12)

let mem_size_for code =
  let need = Wasp.Layout.image_base + String.length code in
  max Wasp.Layout.default_mem_size
    (((need + 4095) / 4096) * 4096)

let image_of c : Wasp.Image.t =
  {
    name = name c;
    code = Bytes.of_string c.code;
    origin = Wasp.Layout.image_base;
    entry = Wasp.Layout.image_base;
    mode = c.mode;
    mem_size = mem_size_for c.code;
    symbols = [];
  }

(* ------------------------------------------------------------------ *)
(* .vxr round trip                                                     *)
(* ------------------------------------------------------------------ *)

(* A case's policy is never [Custom] (see [case]), so its header always
   builds. *)
let to_replay c =
  match
    Wasp.Runtime.recording ~seed:c.seed ?fault_plan:c.plan (image_of c) c.policy ~fuel:c.fuel
  with
  | Ok r -> r
  | Error e -> invalid_arg ("Corpus.to_replay: " ^ e)

let of_replay r =
  Result.map
    (fun ((image : Wasp.Image.t), policy, _plan) ->
      {
        plane = plane_of_name image.name;
        mode = image.mode;
        code = Profiler.Replay.code r;
        seed = Profiler.Replay.seed r;
        policy;
        fuel = Profiler.Replay.fuel r;
        plan = Profiler.Replay.fault_plan r;
      })
    (Wasp.Runtime.of_recording r)

let to_vxr_string c = Profiler.Replay.to_string (to_replay c)

let of_vxr_string s =
  match Profiler.Replay.of_string s with
  | Error e -> Error e
  | Ok r -> of_replay r

(* ------------------------------------------------------------------ *)
(* Directory persistence                                               *)
(* ------------------------------------------------------------------ *)

let save_case ~dir c =
  let path = Filename.concat dir (name c ^ ".vxr") in
  Profiler.Replay.to_file (to_replay c) path;
  path

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all) with Sys_error e -> Error e

(* Malformed files are the expected state of a fuzz corpus directory
   (killed runs, hand truncation, cache corruption): every parse or
   validation failure comes back as a (file, reason) pair, never an
   exception. *)
let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> ([], [ (dir, msg) ])
  | files ->
      Array.sort compare files;
      Array.fold_left
        (fun (ok, bad) f ->
          if Filename.check_suffix f ".vxr" then
            let path = Filename.concat dir f in
            match Result.bind (read_file path) of_vxr_string with
            | Error e -> (ok, (path, e) :: bad)
            | Ok c -> (c :: ok, bad)
          else (ok, bad))
        ([], []) files
      |> fun (ok, bad) -> (List.rev ok, List.rev bad)

(* ------------------------------------------------------------------ *)
(* Built-in seed cases                                                 *)
(* ------------------------------------------------------------------ *)

(* Recursive fib: deep call stacks, arithmetic, a clean exit. *)
let fib_source =
  {|
start:
  mov r1, 10
  call fib
  mov r1, r0
  mov r0, 0
  out 1, r0
  hlt
fib:
  cmp r1, 2
  jlt fib_base
  push r1
  sub r1, 1
  call fib
  pop r1
  push r0
  sub r1, 2
  call fib
  pop r2
  add r0, r2
  ret
fib_base:
  mov r0, r1
  ret
|}

(* A guest that touches every memory width, shifts by register counts
   (the translator-parity surface PR 7 hardened), and issues a denied
   hypercall — coverage for fault, policy and opcode planes. *)
let touch_source =
  {|
start:
  mov r1, 0x9000
  mov r2, 0x1122334455667788
  st64 [r1], r2
  ld32 r3, [r1+4]
  st16 [r1+8], r3
  ld8 r4, [r1+8]
  mov r5, 65
  shl r2, r5        ; over-width shift count: mode-masked semantics
  shr r3, r5
  sar r4, r5
  mov r0, 12        ; clock hypercall (denied under deny_all)
  out 1, r0
  mov r1, r4
  mov r0, 0
  out 1, r0
  hlt
|}

(* The ring trampoline: copy the data blob over the hypercall ring
   (header + SQEs), ring the doorbell, exit with the completion count.
   Everything the host sees on the ring plane comes from the blob. *)
let trampoline_items blob =
  let open Asm in
  [
    Label "start";
    Insn (SMov (1, OLbl "data"));
    Insn (SMov (2, OImm (Int64.of_int Wasp.Layout.ring_base)));
    Insn (SMov (3, OImm (Int64.of_int (String.length blob))));
    Label "copy";
    Insn (SCmp (3, OImm 0L));
    Insn (SJcc (Instr.Eq, Lbl "ring"));
    Insn (SLoad (Instr.W8, 0, 1, 0));
    Insn (SStore (Instr.W8, 2, 0, OReg 0));
    Insn (SBin (Instr.Add, 1, OImm 1L));
    Insn (SBin (Instr.Add, 2, OImm 1L));
    Insn (SBin (Instr.Sub, 3, OImm 1L));
    Insn (SJmp (Lbl "copy"));
    Label "ring";
    Insn (SMov (0, OImm (Int64.of_int Wasp.Hc.ring_enter)));
    Insn (SOut (Wasp.Hc.port, OReg 0));
    Insn (SMov (1, OReg 0));
    Insn (SMov (0, OImm (Int64.of_int Wasp.Hc.exit_)));
    Insn (SOut (Wasp.Hc.port, OReg 0));
    Insn (SHlt);
    Label "data";
    Byte (List.init (String.length blob) (fun i -> Char.code blob.[i]));
  ]

let ring_case ~blob ~seed ~policy ~fuel ~plan =
  let blob =
    if String.length blob > Wasp.Layout.ring_size then
      String.sub blob 0 Wasp.Layout.ring_size
    else blob
  in
  let program = Asm.assemble ~origin:Wasp.Layout.image_base (trampoline_items blob) in
  {
    plane = Ring_batch;
    mode = Vm.Modes.Long;
    code = Bytes.to_string program.Asm.code;
    seed;
    policy;
    fuel;
    plan;
  }

(* Offset of the data blob inside a trampoline image: the trampoline
   prefix is fixed, so it is the encoded size of the empty-blob
   trampoline. Mutators only touch bytes at or past this offset. *)
let ring_data_offset =
  lazy (Bytes.length (Asm.assemble ~origin:Wasp.Layout.image_base (trampoline_items "")).Asm.code)

(* A well-formed one-op batch: sq_tail = 1, one write(1, buf, len) SQE.
   Field layout per docs/hypercalls.md: nr, flags, args0..4, link. *)
let seed_ring_blob () =
  let b = Buffer.create 128 in
  let u64 v =
    for i = 0 to 7 do
      Buffer.add_char b (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
    done
  in
  u64 0L (* sq_head *);
  u64 1L (* sq_tail: one pending SQE *);
  u64 0L (* cq_head *);
  u64 0L (* cq_tail *);
  (* SQE 0: write(fd=1, buf=arg area, len=4) *)
  u64 (Int64.of_int Wasp.Hc.write);
  u64 0L (* flags *);
  u64 1L (* arg0: fd *);
  u64 0L (* arg1: buf (guest address 0) *);
  u64 4L (* arg2: len *);
  u64 0L;
  u64 0L;
  u64 0L (* link *);
  Buffer.contents b

let default_fuel = 200_000

(* Compiler-shaped code, which random images rarely reach: vcc's frame
   pointer, push/pop chains and ld64/st64 through r13 (a plain recursive
   fib behind a zero-argument virtine), and a crt0 that zeroes a heap
   on the code's last page (the file server's [handle]). *)
let vcc_fib_source =
  {|
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
virtine int fib10() { return fib(10); }
|}

let vcc_case compiled fn =
  let vi = Option.get (Vcc.Compile.find_virtine compiled fn) in
  let image = vi.Vcc.Compile.image in
  {
    plane = Image_bytes;
    mode = image.Wasp.Image.mode;
    code = Bytes.to_string image.Wasp.Image.code;
    seed = 0xACE;
    policy = vi.Vcc.Compile.policy;
    fuel = default_fuel;
    plan = None;
  }

let seeds () =
  let img src ~seed ~policy ~plan =
    let program = Asm.assemble_string ~origin:Wasp.Layout.image_base src in
    {
      plane = Image_bytes;
      mode = Vm.Modes.Long;
      code = Bytes.to_string program.Asm.code;
      seed;
      policy;
      fuel = default_fuel;
      plan;
    }
  in
  [
    img fib_source ~seed:0xACE ~policy:Wasp.Policy.deny_all ~plan:None;
    img touch_source ~seed:0xACE ~policy:Wasp.Policy.deny_all ~plan:None;
    ring_case ~blob:(seed_ring_blob ()) ~seed:0xACE
      ~policy:(Wasp.Policy.Mask (Wasp.Policy.mask_of_list [ Wasp.Hc.write; Wasp.Hc.read ]))
      ~fuel:default_fuel ~plan:None;
    (* the Plan plane seed: fib under the standard non-fatal chaos plan *)
    {
      (img fib_source ~seed:0xACE ~policy:Wasp.Policy.deny_all
         ~plan:(Some "seed=0xC4405;spurious_exit=@0+2;ept_storm=@1+3"))
      with
      plane = Plan;
    };
    vcc_case (Vcc.Compile.compile ~snapshot:false ~name:"fuzzfib" vcc_fib_source) "fib10";
    vcc_case (Vhttp.Fileserver.compile ~snapshot:false) "handle";
  ]
