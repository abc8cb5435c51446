(* Plane-aware deterministic mutators.

   Every random choice flows through an explicit Cycles.Rng stream, so a
   fuzz campaign is a pure function of its seed. Mutators respect the
   case's plane:

   - [Image_bytes]: opcode-aware where possible — decode the blob into
     instructions, then replace/insert/delete/splice whole instructions
     or retarget immediates at interesting machine constants — with raw
     byte havoc as the fallback (undecodable blobs are themselves
     first-class inputs: the decoder and fault paths are under test);
   - [Ring_batch]: only bytes at or past the trampoline's data offset
     mutate (ring header cursors, SQE descriptors, links), keeping the
     doorbell trampoline intact;
   - [Plan]: the fault-plan text mutates (sites, triggers, seeds),
     validated so every produced case still parses;

   plus environment mutations (seed, fuel, policy mask bits) that apply
   to any plane. *)

let interesting_imms =
  [|
    0L;
    1L;
    -1L;
    2L;
    0x7FL;
    0x80L;
    0xFFL;
    0x7FFFL;
    0x8000L;
    0xFFFFL;
    0x7FFFFFFFL;
    0xFFFFFFFFL;
    Int64.max_int;
    Int64.min_int;
    Int64.of_int Wasp.Layout.image_base;
    Int64.of_int Wasp.Layout.stack_top;
    Int64.of_int Wasp.Layout.ring_base;
    Int64.of_int (Wasp.Layout.ring_base + Wasp.Layout.ring_size);
    Int64.of_int Wasp.Layout.default_mem_size;
    Int64.of_int (Wasp.Layout.default_mem_size - 1);
  |]

let pick_imm rng = interesting_imms.(Cycles.Rng.int rng (Array.length interesting_imms))

let pick_reg rng = Cycles.Rng.int rng Instr.num_regs

(* A random instruction built from interesting parts. *)
let random_instr rng : Instr.t =
  let operand () =
    if Cycles.Rng.int rng 2 = 0 then Instr.Reg (pick_reg rng)
    else Instr.Imm (pick_imm rng)
  in
  let width () =
    match Cycles.Rng.int rng 4 with
    | 0 -> Instr.W8
    | 1 -> Instr.W16
    | 2 -> Instr.W32
    | _ -> Instr.W64
  in
  let binop () =
    match Cycles.Rng.int rng 11 with
    | 0 -> Instr.Add
    | 1 -> Instr.Sub
    | 2 -> Instr.Mul
    | 3 -> Instr.Div
    | 4 -> Instr.Rem
    | 5 -> Instr.And
    | 6 -> Instr.Or
    | 7 -> Instr.Xor
    | 8 -> Instr.Shl
    | 9 -> Instr.Shr
    | _ -> Instr.Sar
  in
  let addr () = Int64.to_int (Int64.logand (pick_imm rng) 0xFFFFL) in
  match Cycles.Rng.int rng 14 with
  | 0 -> Instr.Hlt
  | 1 -> Instr.Nop
  | 2 -> Instr.Mov (pick_reg rng, operand ())
  | 3 -> Instr.Bin (binop (), pick_reg rng, operand ())
  | 4 -> Instr.Cmp (pick_reg rng, operand ())
  | 5 -> Instr.Jmp (addr ())
  | 6 -> Instr.Push (operand ())
  | 7 -> Instr.Pop (pick_reg rng)
  | 8 -> Instr.Load (width (), pick_reg rng, pick_reg rng, Cycles.Rng.int rng 64)
  | 9 -> Instr.Store (width (), pick_reg rng, Cycles.Rng.int rng 64, operand ())
  | 10 -> Instr.Lea (pick_reg rng, pick_reg rng, Cycles.Rng.int rng 4096)
  | 11 -> Instr.Out (Wasp.Hc.port, operand ())
  | 12 -> Instr.Rdtsc (pick_reg rng)
  | _ -> Instr.Ret

(* ------------------------------------------------------------------ *)
(* Byte-level havoc (any plane)                                        *)
(* ------------------------------------------------------------------ *)

let havoc_bytes rng s ~from =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  if n <= from then s
  else begin
    let pos () = from + Cycles.Rng.int rng (n - from) in
    (match Cycles.Rng.int rng 4 with
    | 0 ->
        let p = pos () in
        Bytes.set b p
          (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl Cycles.Rng.int rng 8)))
    | 1 -> Bytes.set b (pos ()) (Char.chr (Cycles.Rng.int rng 256))
    | 2 ->
        let p = pos () in
        Bytes.set b p
          (Char.chr ((Char.code (Bytes.get b p) + Cycles.Rng.int rng 35 - 17) land 0xFF))
    | _ ->
        (* copy a chunk from elsewhere in the mutable region *)
        let src = pos () and dst = pos () in
        let len = min (1 + Cycles.Rng.int rng 16) (n - max src dst) in
        Bytes.blit b src b dst len);
    Bytes.to_string b
  end

(* ------------------------------------------------------------------ *)
(* Image plane                                                         *)
(* ------------------------------------------------------------------ *)

let encode_instrs instrs =
  Bytes.to_string (Encoding.encode_program instrs)

let mutate_instrs rng instrs =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  if n = 0 then [ random_instr rng ]
  else
    match Cycles.Rng.int rng 5 with
    | 0 ->
        (* replace one instruction *)
        arr.(Cycles.Rng.int rng n) <- random_instr rng;
        Array.to_list arr
    | 1 ->
        (* insert *)
        let at = Cycles.Rng.int rng (n + 1) in
        let l = Array.to_list arr in
        let rec ins i = function
          | rest when i = at -> random_instr rng :: rest
          | [] -> [ random_instr rng ]
          | x :: rest -> x :: ins (i + 1) rest
        in
        ins 0 l
    | 2 ->
        (* delete *)
        let at = Cycles.Rng.int rng n in
        List.filteri (fun i _ -> i <> at) (Array.to_list arr)
    | 3 ->
        (* retarget an immediate at an interesting constant *)
        let at = Cycles.Rng.int rng n in
        (arr.(at) <-
           (match arr.(at) with
           | Instr.Mov (r, _) -> Instr.Mov (r, Instr.Imm (pick_imm rng))
           | Instr.Bin (op, r, _) -> Instr.Bin (op, r, Instr.Imm (pick_imm rng))
           | Instr.Cmp (r, _) -> Instr.Cmp (r, Instr.Imm (pick_imm rng))
           | Instr.Push _ -> Instr.Push (Instr.Imm (pick_imm rng))
           | Instr.Jmp _ -> Instr.Jmp (Int64.to_int (Int64.logand (pick_imm rng) 0xFFFFL))
           | i -> i));
        Array.to_list arr
    | _ ->
        (* splice: duplicate a run of instructions elsewhere *)
        let src = Cycles.Rng.int rng n in
        let len = min (1 + Cycles.Rng.int rng 4) (n - src) in
        let dst = Cycles.Rng.int rng (n + 1) in
        let l = Array.to_list arr in
        let chunk = Array.to_list (Array.sub arr src len) in
        let rec ins i = function
          | rest when i = dst -> chunk @ rest
          | [] -> chunk
          | x :: rest -> x :: ins (i + 1) rest
        in
        ins 0 l

let mutate_image rng code =
  match Encoding.decode_program (Bytes.of_string code) with
  | instrs -> (
      match Cycles.Rng.int rng 4 with
      | 0 | 1 -> encode_instrs (mutate_instrs rng instrs)
      | 2 -> havoc_bytes rng code ~from:0
      | _ ->
          (* truncate to an instruction boundary: the truncated-fetch plane *)
          let keep = Cycles.Rng.int rng (List.length instrs + 1) in
          encode_instrs (List.filteri (fun i _ -> i < keep) instrs))
  | exception Encoding.Decode_error _ ->
      (* undecodable blob: raw havoc only *)
      havoc_bytes rng code ~from:0

(* ------------------------------------------------------------------ *)
(* Ring plane                                                          *)
(* ------------------------------------------------------------------ *)

let put_u64 b off v =
  if off + 8 <= Bytes.length b then
    for i = 0 to 7 do
      Bytes.set b (off + i)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
    done

let interesting_cursors = [| 0L; 1L; 31L; 32L; 33L; 64L; 0xFFFFL; -1L; Int64.max_int |]

(* Structured ring mutations work on the data blob (header + SQEs). *)
let mutate_ring_blob rng blob =
  let n = String.length blob in
  if n < 8 then havoc_bytes rng blob ~from:0
  else
    match Cycles.Rng.int rng 3 with
    | 0 ->
        (* stomp a header cursor *)
        let b = Bytes.of_string blob in
        let field = Cycles.Rng.int rng 4 in
        put_u64 b (8 * field)
          interesting_cursors.(Cycles.Rng.int rng (Array.length interesting_cursors));
        Bytes.to_string b
    | 1 ->
        (* rewrite an SQE field: nr near the valid range, wild args/links *)
        let b = Bytes.of_string blob in
        let sqe = Cycles.Rng.int rng 32 in
        let field = Cycles.Rng.int rng 8 in
        let off = 0x40 + (64 * sqe) + (8 * field) in
        let v =
          if field = 0 then Int64.of_int (Cycles.Rng.int rng (Wasp.Hc.count + 4) - 2)
          else if Cycles.Rng.int rng 2 = 0 then pick_imm rng
          else Int64.of_int (Cycles.Rng.int rng 65536)
        in
        put_u64 b off v;
        Bytes.to_string b
    | _ -> havoc_bytes rng blob ~from:0

(* ------------------------------------------------------------------ *)

(* the fault-plan sites, in the order the RNG indexes them *)
let known_sites =
  Kvmsim.Kvm.
    [|
      site_spurious_exit; site_ept_storm; site_guest_hang; site_provision_fail;
      site_snapshot_corrupt; site_ring_corrupt;
    |]

(* Plan plane: grow/shrink/perturb the textual plan, keeping it valid. *)
let mutate_plan rng plan =
  let base = Option.value plan ~default:"seed=0x1" in
  let parts = String.split_on_char ';' base in
  let keyed, sites =
    List.partition (fun p -> String.length p >= 5 && String.sub p 0 5 = "seed=") parts
  in
  let seed_part =
    match keyed with
    | s :: _ -> s
    | [] -> "seed=0x1"
  in
  let render ss = String.concat ";" (seed_part :: List.filter (fun s -> s <> "") ss) in
  let candidate =
    match Cycles.Rng.int rng 4 with
    | 0 ->
        (* add a site with a random trigger *)
        let site = known_sites.(Cycles.Rng.int rng (Array.length known_sites)) in
        let trig =
          if Cycles.Rng.int rng 2 = 0 then
            Printf.sprintf "@%d+%d" (Cycles.Rng.int rng 4) (1 + Cycles.Rng.int rng 7)
          else Printf.sprintf "p0.%02d" (1 + Cycles.Rng.int rng 30)
        in
        render (sites @ [ site ^ "=" ^ trig ])
    | 1 ->
        (* drop a site *)
        if sites = [] then render sites
        else
          let at = Cycles.Rng.int rng (List.length sites) in
          render (List.filteri (fun i _ -> i <> at) sites)
    | 2 ->
        (* reseed the plan *)
        Printf.sprintf "seed=0x%X;%s" (Cycles.Rng.int rng 0xFFFFF) (String.concat ";" sites)
    | _ ->
        (* perturb a trigger by regenerating the whole site *)
        let site = known_sites.(Cycles.Rng.int rng (Array.length known_sites)) in
        render
          (List.filter
             (fun s -> not (String.length s > String.length site && String.sub s 0 (String.length site) = site))
             sites
          @ [ Printf.sprintf "%s=@%d+%d" site (Cycles.Rng.int rng 3) (1 + Cycles.Rng.int rng 5) ])
  in
  match Cycles.Fault_plan.of_string candidate with
  | Ok _ -> Some candidate
  | Error _ -> plan (* keep the old valid plan rather than emit junk *)

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let mutate_env rng (c : Corpus.case) : Corpus.case =
  match Cycles.Rng.int rng 3 with
  | 0 -> { c with seed = Cycles.Rng.int rng 0xFFFFFF }
  | 1 ->
      (* fuel: tiny budgets hit the fuel plane, big ones the deep paths *)
      let fuels = [| 16; 256; 4096; Corpus.default_fuel; 4 * Corpus.default_fuel |] in
      { c with fuel = fuels.(Cycles.Rng.int rng (Array.length fuels)) }
  | _ ->
      let policies =
        [|
          Wasp.Policy.deny_all;
          Wasp.Policy.allow_all;
          Wasp.Policy.Mask (Wasp.Policy.mask_of_list [ Wasp.Hc.write; Wasp.Hc.read ]);
          Wasp.Policy.Mask (Wasp.Policy.mask_of_list [ Wasp.Hc.exit_ ]);
          Wasp.Policy.Mask (Int64.of_int (Cycles.Rng.int rng 0xFFFF));
        |]
      in
      { c with policy = policies.(Cycles.Rng.int rng (Array.length policies)) }

let mutate ~rng (c : Corpus.case) : Corpus.case =
  (* one in four mutations touches the environment, whatever the plane *)
  if Cycles.Rng.int rng 4 = 0 then mutate_env rng c
  else
    match c.plane with
    | Corpus.Image_bytes -> { c with code = mutate_image rng c.code }
    | Corpus.Plan -> { c with plan = mutate_plan rng c.plan }
    | Corpus.Ring_batch ->
        let off = Lazy.force Corpus.ring_data_offset in
        if String.length c.code <= off then { c with code = havoc_bytes rng c.code ~from:0 }
        else
          let blob = String.sub c.code off (String.length c.code - off) in
          let blob' =
            if Cycles.Rng.int rng 3 = 0 then havoc_bytes rng blob ~from:0
            else mutate_ring_blob rng blob
          in
          (* rebuild through the trampoline so the copy length matches *)
          Corpus.ring_case ~blob:blob' ~seed:c.seed ~policy:c.policy ~fuel:c.fuel
            ~plan:c.plan

let rounds ~rng n c =
  let rec go n c = if n <= 0 then c else go (n - 1) (mutate ~rng c) in
  go (max 1 n) c
