(* Binary-translation fast path: the decode-once superblock cache must
   run the same guest programs as the reference stepper
   (Fuzz.Reference, one fetch-decode-execute per instruction) with
   bit-identical architectural outcomes (registers, retired count,
   simulated cycles) while spending far less host time per retired
   instruction. The reference is the table's "interp" arm.

   The gated table holds only deterministic simulated quantities —
   retired instructions, simulated cycles per engine, the divergence
   count, translated superblock counts. Wall-clock speedup depends on
   the host machine, so it goes to stderr, keeping stdout deterministic:
   a line per workload plus the TRANSLATE-SMOKE marker line that
   `make translate-smoke` greps. *)

let origin = 0x8000

(* decode-dominated: a tight countdown loop whose body carries 64-bit
   immediates — the reference re-fetches every immediate byte on every
   iteration, the superblock decodes them exactly once *)
let loop_src iters =
  Printf.sprintf
    {|
  mov r0, %d
top:
  mov r1, 0x123456789ABC
  mov r2, 0xFEDCBA987654
  add r1, r2
  xor r1, 0x5A5A5A5A5A5A
  sub r0, 1
  cmp r0, 0
  jgt top
  hlt
|}
    iters

(* control-flow-heavy: naive recursive fib exercises call/ret chains,
   the stack, and block re-entry from many return sites *)
let fib_src n =
  Printf.sprintf
    {|
  mov r0, %d
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
    n

type outcome = {
  exit : string;
  regs : int64 array;
  retired : int64;
  cycles : int64;
  wall : float;
  superblocks : int;
}

let exec engine src =
  let p = Asm.assemble_string ~origin src in
  let mem = Vm.Memory.create ~size:(256 * 1024) in
  Vm.Memory.write_bytes mem ~off:p.Asm.origin p.Asm.code;
  let clock = Cycles.Clock.create () in
  let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock in
  Vm.Cpu.set_pc cpu p.Asm.entry;
  Vm.Cpu.set_sp cpu 0x8000;
  let run, superblocks =
    match engine with
    | `Interp -> ((fun () -> Fuzz.Reference.run cpu), fun () -> 0)
    | `Translate ->
        let tr = Vm.Translate.create () in
        ( (fun () -> Vm.Translate.run tr cpu),
          fun () -> (Vm.Translate.stats tr).Vm.Translate.blocks_translated )
  in
  let t0 = Unix.gettimeofday () in
  let exit = run () in
  let wall = Unix.gettimeofday () -. t0 in
  {
    exit = Format.asprintf "%a" Vm.Cpu.pp_exit exit;
    regs = Array.init 16 (Vm.Cpu.get_reg cpu);
    retired = Vm.Cpu.instructions_retired cpu;
    cycles = Cycles.Clock.now clock;
    wall;
    superblocks = superblocks ();
  }

(* count of architectural fields that differ between the engines; the
   acceptance bar is exactly zero *)
let divergence a b =
  (if a.exit <> b.exit then 1 else 0)
  + (if a.regs <> b.regs then 1 else 0)
  + (if a.retired <> b.retired then 1 else 0)
  + if a.cycles <> b.cycles then 1 else 0

(* best-of-n wall clock to shave scheduler noise off the marker ratio *)
let best_wall n engine src =
  let rec go n best =
    if n = 0 then best
    else
      let o = exec engine src in
      go (n - 1) (if o.wall < best.wall then o else best)
  in
  go (n - 1) (exec engine src)

let run () =
  Bench_util.header "Translate: decode-once superblock cache"
    "simulator engine ablation (reference stepper vs binary translation)";
  let workloads =
    [ ("loop 1M iters", loop_src 1_000_000); ("fib(24) recursive", fib_src 24) ]
  in
  let measured =
    List.map
      (fun (name, src) ->
        let i = best_wall 3 `Interp src in
        let t = best_wall 3 `Translate src in
        (name, i, t, divergence i t))
      workloads
  in
  let rows =
    List.map
      (fun (name, i, t, div) ->
        [
          name;
          Int64.to_string i.retired;
          Int64.to_string i.cycles;
          Int64.to_string t.cycles;
          string_of_int div;
          string_of_int t.superblocks;
        ])
      measured
  in
  Bench_util.table ~fig:"translate"
    ~title:"engine equivalence (simulated quantities, deterministic)"
    ~header:
      [
        "workload";
        "retired";
        "interp cycles";
        "translate cycles";
        "divergence";
        "superblocks";
      ]
    rows;
  List.iter
    (fun (name, i, t, _) ->
      Printf.eprintf "  %s: interp %.3fs, translated %.3fs (%.1fx wall-clock)\n%!" name i.wall
        t.wall (i.wall /. t.wall))
    measured;
  let total_div = List.fold_left (fun acc (_, _, _, d) -> acc + d) 0 measured in
  (* marker speedup: the decode-dominated loop, the workload the cache
     is built for; floor to an integer so the grep is unambiguous *)
  let _, li, lt, _ = List.hd measured in
  Printf.eprintf "  TRANSLATE-SMOKE: divergence=%d speedup=%dx\n%!" total_div
    (int_of_float (li.wall /. lt.wall));
  Bench_util.print_blank ()
