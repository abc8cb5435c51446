(* Decode-once superblock translation: the vx execution engine.

   Each basic block is decoded once into a *superblock*: an OCaml closure
   chain with one direct-threaded continuation per instruction, chained
   on fallthrough and static branch targets. Blocks are keyed by (pc,
   cpu_mode, flavour). One cache serves every vCPU of a system: a run
   binds its CPU, memory and clock, and the closures read them from the
   cache, so a recycled or restored shell finds the blocks it ran before.

   A block is valid while it was last validated against the bound memory
   (its tag) and its pages' content versions have not moved — the fast
   path. Translating a block records its bytes in its pages' code
   extents, and a page's version moves only when a write overlaps its
   extent: a self-modifying store, a pool reset or a CoW restore stales
   every block on the pages it rewrites, while data stored beside code
   (a heap sharing the code's page) keeps them. A stale block is
   compared with the memory, a word at a time — the slow path — and
   reused when they match, so only changed bytes are translated again.

   Each key keeps up to [ways] blocks, newest first, as a ret keeps its
   return targets: the classic and ringed file servers load at one
   origin and differ in a few blocks, and a system serving both keeps
   each one's. A lookup takes the key's valid way, else the first way
   whose bytes match, else translates into the front way; the block
   pushed out of the last way is dead (b_live), and no chain slot or
   return cache enters it again. A stale way that does not match stays
   for the memory it does match, so [invalidations] counts the lookups
   that found blocks under the key but none to reuse, not blocks
   dropped, plus blocks aborted mid-block.

   Every instruction charges its exact Instr.cost, bumps retired, and
   honors fuel. Cycle and retired charges are batched in plain ints and
   committed to the Clock/CPU at every point a host observer could look:

     - VM exits (hlt/out/in) and Rdtsc;
     - before every guest memory write an observer can see — a store
       can break a CoW page, and the EPT fault hook reads Clock.now and
       Cpu.pc mid-write, so the clock and pc must be architecturally
       exact there;
     - in the dispatcher's fault handler (reads/pops fault lazily);
     - before every step-hook call (the hooked flavour, below).

   A store whose bytes lie (1) in one Owned page, (2) inside the mode
   limit and the memory and (3) clear of that page's code extent is
   seen by no one: it cannot fault, the fault hook runs only for Zero
   and Shared pages, and no content version moves, so no block can go
   stale under it. Memory.try_store makes such a store and the block
   goes on without a commit, a pc write or a version recheck; any other
   store takes the observed path below.

   The hot path allocates nothing. Every library module is compiled
   -opaque in dune's dev profile, so no call from here into Cpu, Memory
   or Clock is inlined and any int64 crossing one is a fresh box.
   Registers therefore live in Cpu's unboxed register file, read and
   written here through compiler primitives; the batch, the clock and
   the retired count are ints; guest words move between RAM and the
   register file through Memory.load64_into, try_store and
   store_from; and each instruction's closure is specialised at
   translate time by opcode, operand kind, width and condition, with
   the mode's mask and sign-extension shift as captured constants.

   While a Cpu step hook is installed (the profiler, vtrace instr
   probes) the dispatcher runs *hooked* blocks, which commit and call
   the hook once per instruction, before it executes. Unhooked blocks
   carry no per-instruction hook work. The flavour is part of the block
   key, so the two never chain into each other. Tests and the fuzzer
   hold all of this to a one-at-a-time reference stepper
   (Fuzz.Reference); see docs/translation.md. *)

type stats = {
  mutable blocks_translated : int;
  mutable invalidations : int;
  mutable revalidations : int;
}

(* A chain slot caches the resolved target block of a static edge
   (fallthrough, jmp, call, taken jcc) so steady-state control transfer
   is a validity check plus a tail call, not a table lookup. *)
type slot = { mutable s_blk : block option }

and block = {
  b_pc : int;
  b_code : bytes;
      (* the bytes it was decoded from, at [b_pc]; empty when it ends at
         an undecodable pc: where it ends then depends on bytes past its
         own, so it is never revalidated *)
  b_pages : int array;    (* pages the block's code bytes span *)
  b_vers : int array;     (* their content versions when last validated *)
  mutable b_tag : Memory.tag;  (* of the memory those versions belong to *)
  b_exec : unit -> Cpu.exit_reason option;
      (* [Some exit] = VM exit; [None] = control left the chain
         (indirect call, invalidation, undecodable pc): re-dispatch at
         the CPU's pc. *)
  mutable b_live : bool;
      (* one of its key's ways: a chain slot or a return cache may
         reuse a block only while the dispatcher would have found it *)
}

(* The machine a run binds: every closure reads these fields, so blocks
   serve any vCPU. Between runs the cache binds [idle], a CPU over an
   empty memory, and keeps no guest's state alive. *)
type t = {
  idle : Cpu.t;
  mutable cpu : Cpu.t;
  mutable mem : Memory.t;
  mutable tag : Memory.tag;
  mutable clock : Cycles.Clock.t;
  mutable regs : Cpu.regfile;
  mutable flags : Cpu.flags;
  scratch : Cpu.regfile;  (* one word: a return address popped or pushed,
                             or an immediate being stored *)
  table : (int, block array) Hashtbl.t;  (* a key's ways, newest first *)
  mutable cyc : int;      (* cycles charged but not yet committed *)
  mutable steps : int;    (* instructions retired but not yet committed *)
  mutable fuel : int;
  mutable cur_pc : int;   (* start pc of the instruction in flight *)
  mutable block_hook : (pc:int -> unit) option;
  stats : stats;
}

let bind tr cpu =
  let mem = Cpu.mem cpu in
  tr.cpu <- cpu;
  tr.mem <- mem;
  tr.tag <- Memory.tag mem;
  tr.clock <- Cpu.clock cpu;
  tr.regs <- Cpu.regs cpu;
  tr.flags <- Cpu.flags cpu

let create () =
  let idle =
    Cpu.create ~mem:(Memory.create ~size:0) ~mode:Modes.Real ~clock:(Cycles.Clock.create ())
  in
  let mem = Cpu.mem idle in
  {
    idle;
    cpu = idle;
    mem;
    tag = Memory.tag mem;
    clock = Cpu.clock idle;
    regs = Cpu.regs idle;
    flags = Cpu.flags idle;
    scratch = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1;
    table = Hashtbl.create 64;
    cyc = 0;
    steps = 0;
    fuel = 0;
    cur_pc = 0;
    block_hook = None;
    stats = { blocks_translated = 0; invalidations = 0; revalidations = 0 };
  }

let stats t = t.stats

let retained_words t =
  let hook = t.block_hook in
  t.block_hook <- None;
  let words = Obj.reachable_words (Obj.repr t) in
  t.block_hook <- hook;
  words

let set_block_hook t h = t.block_hook <- h

(* Register-file access: with the concrete [Cpu.regfile] type these
   compile to plain loads and stores of unboxed words. *)
external get : Cpu.regfile -> int -> int64 = "%caml_ba_unsafe_ref_1"
external set : Cpu.regfile -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

(* Commit batched charges. Idempotent; called at every observation
   point. After this, Clock.now and instructions_retired read exactly
   what one-at-a-time execution would have accumulated. *)
let commit tr =
  if tr.cyc <> 0 then begin
    Cycles.Clock.advance_int tr.clock tr.cyc;
    tr.cyc <- 0
  end;
  if tr.steps <> 0 then begin
    Cpu.add_retired tr.cpu tr.steps;
    tr.steps <- 0
  end

(* Charge one instruction to the batch; [false], charging nothing, once
   fuel is exhausted. *)
let[@inline] charge tr cost =
  tr.fuel > 0
  && begin
       tr.fuel <- tr.fuel - 1;
       tr.cyc <- tr.cyc + cost;
       tr.steps <- tr.steps + 1;
       true
     end

(* Sign-extend a mode-width value: [s] is 64 minus the mode width. *)
let[@inline] sext s v = Int64.shift_right (Int64.shift_left v s) s

(* An access of [size] bytes at [addr] past the mode's [limit] faults.
   Overflow-safe like [Memory.check]: [addr + size] wraps negative for a
   base register near [max_int]; [limit - size] cannot. *)
let[@inline] check_limit mode limit addr size =
  if addr < 0 || addr > limit - size then
    raise (Cpu.Vm_fault (Cpu.limit_fault mode addr size))

let max_int64 = Int64.of_int max_int

(* Architectural target of an indirect branch through word [i] of [a]:
   truncated to the mode width like every register write, so a 32-bit
   guest with a stale high half lands at the masked address. A
   long-mode value beyond the host int range clamps to the mode limit,
   where the next fetch faults — the fault [Jmp] out of range takes. *)
let[@inline] branch_target mode limit (a : Cpu.regfile) i =
  let v = get a i in
  match mode with
  | Modes.Real -> Int64.to_int v land 0xFFFF
  | Modes.Protected -> Int64.to_int v land 0xFFFFFFFF
  | Modes.Long -> if v < 0L || v > max_int64 then limit else Int64.to_int v

(* Conditions resolved at translate time: which flag, and the set of its
   signs that take the branch (bit 0 negative, bit 1 zero, bit 2
   positive). *)
let cond_signs : Instr.cond -> bool * int = function
  | Eq -> (false, 0b010)
  | Ne -> (false, 0b101)
  | Lt -> (false, 0b001)
  | Le -> (false, 0b011)
  | Gt -> (false, 0b100)
  | Ge -> (false, 0b110)
  | Ult -> (true, 0b001)
  | Ule -> (true, 0b011)
  | Ugt -> (true, 0b100)
  | Uge -> (true, 0b110)

let mode_index = function Modes.Real -> 0 | Modes.Protected -> 1 | Modes.Long -> 2
let key_of pc mode ~hooked = (pc lsl 3) lor (mode_index mode lsl 1) lor Bool.to_int hooked

(* Superblocks stop at 128 instructions; longer straight-line runs chain
   through a synthetic fallthrough edge. *)
let max_block = 128

(* Return targets one [ret] remembers: fib's alternates between two. *)
let ret_ways = 4

(* Blocks one key keeps (see the header). *)
let ways = 4

(* An empty way, of a key or a return cache: never live, under a tag no
   memory has, with no bytes to revalidate. *)
let no_block =
  {
    b_pc = -1;
    b_code = Bytes.empty;
    b_pages = [||];
    b_vers = [||];
    b_tag = Memory.tag (Memory.create ~size:0);
    b_exec = (fun () -> None);
    b_live = false;
  }

(* Top-level and closure-free: it runs on every chained transfer. *)
let rec pages_current mem pages vers i =
  i >= Array.length pages
  || (Memory.page_version mem (Array.unsafe_get pages i) = Array.unsafe_get vers i
     && pages_current mem pages vers (i + 1))

(* The fast path: validated against this memory, and none of its pages
   rewritten since. The tag comes first, as versions are per memory. *)
let block_valid tr b = b.b_tag == tr.tag && pages_current tr.mem b.b_pages b.b_vers 0

(* The slow path: a stale block whose bytes are still in place is the
   block a fresh translation would build, as its extent and every
   closure depend only on its bytes and the mode, which is in its key.
   Bounds come first: the memory may be smaller than the one it was
   decoded from. Then it takes this memory's extents and versions. *)
let revalidate tr b =
  let len = Bytes.length b.b_code in
  len > 0
  && b.b_pc <= Memory.size tr.mem - len
  && Memory.equal_bytes tr.mem ~off:b.b_pc b.b_code
  && begin
       Memory.note_code tr.mem ~off:b.b_pc ~len;
       for i = 0 to Array.length b.b_pages - 1 do
         b.b_vers.(i) <- Memory.page_version tr.mem b.b_pages.(i)
       done;
       b.b_tag <- tr.tag;
       tr.stats.revalidations <- tr.stats.revalidations + 1;
       true
     end

(* A new block takes the front way. The oldest, pushed out of the last,
   is dead: no chain slot or return cache enters it again. *)
let install w b =
  (Array.unsafe_get w (ways - 1)).b_live <- false;
  Array.blit w 0 w 1 (ways - 1);
  Array.unsafe_set w 0 b;
  b

(* Take [b] out of its key's ways, closing the gap; the others stay. *)
let drop tr key b =
  b.b_live <- false;
  match Hashtbl.find tr.table key with
  | exception Not_found -> ()
  | w ->
      let i = ref 0 in
      while !i < ways && Array.unsafe_get w !i != b do incr i done;
      if !i < ways then begin
        Array.blit w (!i + 1) w !i (ways - 1 - !i);
        Array.unsafe_set w (ways - 1) no_block
      end

(* The key's valid way, else the first whose bytes still match, else a
   fresh translation. Loops, not local recursive functions: a hit
   allocates nothing. *)
let rec lookup tr ~hooked pc =
  let key = key_of pc (Cpu.mode tr.cpu) ~hooked in
  match Hashtbl.find tr.table key with
  | exception Not_found ->
      let w = Array.make ways no_block in
      Hashtbl.add tr.table key w;
      install w (translate tr ~hooked pc)
  | w ->
      let i = ref 0 in
      while !i < ways && not (block_valid tr (Array.unsafe_get w !i)) do incr i done;
      if !i < ways then Array.unsafe_get w !i
      else begin
        i := 0;
        while !i < ways && not (revalidate tr (Array.unsafe_get w !i)) do incr i done;
        if !i < ways then Array.unsafe_get w !i
        else begin
          if Array.unsafe_get w 0 != no_block then
            tr.stats.invalidations <- tr.stats.invalidations + 1;
          install w (translate tr ~hooked pc)
        end
      end

and translate tr ~hooked pc0 =
  let mode = Cpu.mode tr.cpu in
  (* Pass 1: decode the block once. Stops at control flow, VM exits, an
     undecodable pc, or the length cap. *)
  let rec scan pc n acc =
    if n >= max_block then (List.rev acc, `Fall pc)
    else
      match Cpu.fetch tr.cpu pc with
      | exception (Cpu.Vm_fault _ | Memory.Fault _) -> (List.rev acc, `Bad pc)
      | (instr : Instr.t), size -> (
          let acc = (pc, instr, size) :: acc in
          match instr with
          | Hlt | Out _ | In _ | Jmp _ | Call _ | Callr _ | Ret ->
              (List.rev acc, `Stop)
          | _ -> scan (pc + size) (n + 1) acc)
  in
  let decoded, tail = scan pc0 0 [] in
  let body, term =
    match tail with
    | `Stop -> (
        match List.rev decoded with
        | last :: rest -> (List.rev rest, `Term last)
        | [] -> assert false)
    | (`Fall _ | `Bad _) as k -> (decoded, k)
  in
  (* The pages the decoded bytes span; rechecked after every in-block
     write (self-modifying code) and on every block entry. Filled in
     after compilation — the closures capture the refs. *)
  let pages_r = ref [||] and vers_r = ref [||] and self = ref no_block in
  let smc_ok () = pages_current tr.mem !pages_r !vers_r 0 in
  let smc_abort () =
    tr.stats.invalidations <- tr.stats.invalidations + 1;
    None
  in
  let out_of_fuel start =
    commit tr;
    Cpu.set_pc tr.cpu start;
    Some Cpu.Out_of_fuel
  in
  (* The hooked flavour's prologue around [k], one instruction's own
     closure: commit every charge up to and including this instruction,
     call the hook, then leave the batch pre-paid by one instruction so
     [k]'s own charge brings it back to zero. Unhooked blocks use [k]
     as is. *)
  let with_hook start instr k =
    if not hooked then k
    else
      let cost = Instr.cost instr in
      fun () ->
        if tr.fuel > 0 then begin
          tr.cyc <- tr.cyc + cost;
          tr.steps <- tr.steps + 1;
          commit tr;
          Cpu.set_pc tr.cpu start;
          (match Cpu.current_step_hook tr.cpu with Some h -> h ~pc:start ~instr ~cost | None -> ());
          tr.cyc <- -cost;
          tr.steps <- -1
        end;
        k ()
  in
  (* Resolve a static branch edge lazily, caching the target block. *)
  let goto target =
    let slot = { s_blk = None } in
    fun () ->
      (* chained static edges bypass the dispatch loop, so block-entry
         observers must also fire here *)
      (match tr.block_hook with None -> () | Some f -> f ~pc:target);
      match slot.s_blk with
      | Some b when b.b_live && block_valid tr b -> b.b_exec ()
      | cached ->
          let b = lookup tr ~hooked target in
          (match cached with Some c when c == b -> () | _ -> slot.s_blk <- Some b);
          b.b_exec ()
  in
  (* Per-mode constants, so no closure dispatches on the mode: the
     register mask ([m] as int64, [mi] as int; all ones in long mode),
     the sign-extension shift [s] (0 in long mode), the shift-count mask
     and the address limit. Registers hold masked values, so only ops
     that can set bits above the width re-mask. *)
  let m, mi =
    match mode with
    | Modes.Real -> (0xFFFFL, 0xFFFF)
    | Modes.Protected -> (0xFFFFFFFFL, 0xFFFFFFFF)
    | Modes.Long -> (-1L, -1)
  in
  let masked = mode <> Modes.Long in
  let s = 64 - Modes.width_bits mode in
  let cnt = match mode with Modes.Real | Modes.Protected -> 31 | Modes.Long -> 63 in
  let limit = Modes.address_limit mode in
  let imm i = Int64.logand i m in
  let set_sp sp = set tr.regs Instr.sp (Int64.of_int (sp land mi)) in
  (* Every store writes the low [size] bytes of word [i] of [src] (the
     register file, or [scratch] holding an immediate) at [base] + [d];
     a push writes 8 bytes at sp - 8. [unseen] makes a store no observer
     can see (see the header). Any other takes [observed], for the
     instruction at [start]: it commits first, as the write may
     CoW-fault and the fault hook observes the clock and the pc, already
     [next], and rechecks the block's versions after, as the store may
     have rewritten this very block ([false]: the block must abort).
     Each site calls [observed] only when [unseen] refuses, so the fast
     path loads no operand that only the observed path uses: one loaded
     before the call into Memory is spilled around it (6% of native
     fib's host time, with one helper binding them all up front). *)
  let[@inline] unseen addr size (src : Cpu.regfile) i =
    addr <= limit - size && Memory.try_store tr.mem addr size src i
  in
  let observed start next base d size src i =
    tr.cur_pc <- start;
    commit tr;
    Cpu.set_pc tr.cpu next;
    let addr = Int64.to_int (get tr.regs base) + d in
    check_limit mode limit addr size;
    Memory.store_from tr.mem addr size src i;
    smc_ok ()
  in
  (* Block terminator continuation. *)
  let tail_k : unit -> Cpu.exit_reason option =
    match term with
    | `Fall pc -> goto pc
    | `Bad pc ->
        (* Undecodable bytes end the block. Fetching them again here
           raises that fetch's own fault, at the pc where it belongs;
           nothing is charged or retired. The bytes lie outside the
           block's validated range, so if a write has since made them
           decodable, drop this block from its key and re-dispatch to
           translate them. *)
        let key0 = key_of pc0 mode ~hooked in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel pc
          else begin
            tr.cur_pc <- pc;
            ignore (Cpu.fetch tr.cpu pc);
            drop tr key0 !self;
            Cpu.set_pc tr.cpu pc;
            smc_abort ()
          end
    | `Term (start, instr, size) -> (
        let cost = Instr.cost instr in
        let next = start + size in
        (* hlt/out/in: a VM exit, resumable after the instruction *)
        let vm_exit exit =
          fun () ->
            if charge tr cost then begin
              commit tr;
              Cpu.set_pc tr.cpu next;
              Some (exit ())
            end
            else out_of_fuel start
        in
        let retv = Int64.of_int next in
        let push_return () =
          set tr.scratch 0 retv;
          let sp = Int64.to_int (get tr.regs Instr.sp) - 8 in
          let ok = unseen sp 8 tr.scratch 0 || observed start next Instr.sp (-8) 8 tr.scratch 0 in
          set_sp sp;
          ok
        in
        with_hook start instr
        @@
        match instr with
        | Hlt -> vm_exit (fun () -> Cpu.Halt)
        | Out (port, Reg rs) -> vm_exit (fun () -> Cpu.Io_out { port; value = get tr.regs rs })
        | Out (port, Imm i) ->
            let e = Cpu.Io_out { port; value = imm i } in
            vm_exit (fun () -> e)
        | In (rd, port) -> vm_exit (fun () -> Cpu.Io_in { port; reg = rd })
        | Jmp a ->
            let g = goto a in
            fun () -> if charge tr cost then g () else out_of_fuel start
        | Call a ->
            let g = goto a in
            fun () ->
              if charge tr cost then begin
                if push_return () then g ()
                else begin
                  Cpu.set_pc tr.cpu a;
                  smc_abort ()
                end
              end
              else out_of_fuel start
        | Callr r ->
            fun () ->
              if charge tr cost then begin
                ignore (push_return ());
                (* register read after the push (callr through sp) *)
                Cpu.set_pc tr.cpu (branch_target mode limit tr.regs r);
                None
              end
              else out_of_fuel start
        | Ret ->
            (* A small table of this ret's targets and their blocks, so
               returns chain like static edges: filled from [lookup] on
               a miss, revalidated on every hit, round-robin replaced. *)
            let pcs = Array.make ret_ways (-1) and blks = Array.make ret_ways no_block in
            let victim = ref 0 in
            let resolve target =
              let i = ref 0 in
              while !i < ret_ways && Array.unsafe_get pcs !i <> target do incr i done;
              if !i = ret_ways then begin
                let b = lookup tr ~hooked target in
                pcs.(!victim) <- target;
                blks.(!victim) <- b;
                victim := (!victim + 1) mod ret_ways;
                b
              end
              else
                let b = Array.unsafe_get blks !i in
                if b.b_live && block_valid tr b then b
                else begin
                  let b = lookup tr ~hooked target in
                  blks.(!i) <- b;
                  b
                end
            in
            fun () ->
              if charge tr cost then begin
                tr.cur_pc <- start;
                let sp = Int64.to_int (get tr.regs Instr.sp) in
                check_limit mode limit sp 8;
                Memory.load64_into tr.mem sp tr.scratch 0;
                set_sp (sp + 8);
                let target = branch_target mode limit tr.scratch 0 in
                (* the transfer the dispatcher would make, and its
                   observer, without leaving the chain *)
                (match tr.block_hook with None -> () | Some f -> f ~pc:target);
                (resolve target).b_exec ()
              end
              else out_of_fuel start
        | _ -> assert false (* only VM exits and branches terminate *))
  in
  (* Pass 2: compile body instructions back-to-front, each closure
     continuing into the next. Every closure is specialised here by
     opcode, operand kind and width, so none calls an operand reader or
     an operator passed as a value. *)
  let compile (start, (instr : Instr.t), size) next_k =
    let cost = Instr.cost instr in
    let next = start + size in
    with_hook start instr
    @@
    match instr with
    | Instr.Nop -> fun () -> if charge tr cost then next_k () else out_of_fuel start
    | Mov (rd, Reg rs) ->
        (* registers are invariantly masked: no re-mask *)
        fun () ->
          if charge tr cost then (set tr.regs rd (get tr.regs rs); next_k ())
          else out_of_fuel start
    | Mov (rd, Imm i) ->
        let v = imm i in
        fun () -> if charge tr cost then (set tr.regs rd v; next_k ()) else out_of_fuel start
    | Bin (op, rd, Reg rs) -> (
        match op with
        | Add ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (Int64.add (get tr.regs rd) (get tr.regs rs)) m);
                next_k ())
              else out_of_fuel start
        | Sub ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (Int64.sub (get tr.regs rd) (get tr.regs rs)) m);
                next_k ())
              else out_of_fuel start
        | Mul ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (Int64.mul (get tr.regs rd) (get tr.regs rs)) m);
                next_k ())
              else out_of_fuel start
        (* and/or/xor/shr of masked values stay masked *)
        | And ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (get tr.regs rd) (get tr.regs rs));
                next_k ())
              else out_of_fuel start
        | Or ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logor (get tr.regs rd) (get tr.regs rs));
                next_k ())
              else out_of_fuel start
        | Xor ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logxor (get tr.regs rd) (get tr.regs rs));
                next_k ())
              else out_of_fuel start
        | Shl ->
            fun () ->
              if charge tr cost then (
                let c = Int64.to_int (get tr.regs rs) land cnt in
                set tr.regs rd (Int64.logand (Int64.shift_left (get tr.regs rd) c) m);
                next_k ())
              else out_of_fuel start
        | Shr ->
            fun () ->
              if charge tr cost then (
                let c = Int64.to_int (get tr.regs rs) land cnt in
                set tr.regs rd (Int64.shift_right_logical (get tr.regs rd) c);
                next_k ())
              else out_of_fuel start
        | Sar ->
            fun () ->
              if charge tr cost then (
                let c = Int64.to_int (get tr.regs rs) land cnt in
                set tr.regs rd (Int64.logand (Int64.shift_right (sext s (get tr.regs rd)) c) m);
                next_k ())
              else out_of_fuel start
        | Div | Rem ->
            (* signed, on the sign-extended operands *)
            let div = op = Div in
            fun () ->
              if charge tr cost then begin
                tr.cur_pc <- start;
                let r = sext s (get tr.regs rs) in
                if r = 0L then raise (Cpu.Vm_fault (Division_by_zero { addr = start }));
                let l = sext s (get tr.regs rd) in
                set tr.regs rd (Int64.logand (if div then Int64.div l r else Int64.rem l r) m);
                next_k ()
              end
              else out_of_fuel start)
    | Bin (op, rd, Imm i) -> (
        let v = imm i in
        let c = Int64.to_int v land cnt in
        match op with
        | Add ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (Int64.add (get tr.regs rd) v) m);
                next_k ())
              else out_of_fuel start
        | Sub ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (Int64.sub (get tr.regs rd) v) m);
                next_k ())
              else out_of_fuel start
        | Mul ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (Int64.mul (get tr.regs rd) v) m);
                next_k ())
              else out_of_fuel start
        | And ->
            fun () ->
              if charge tr cost then (set tr.regs rd (Int64.logand (get tr.regs rd) v); next_k ())
              else out_of_fuel start
        | Or ->
            fun () ->
              if charge tr cost then (set tr.regs rd (Int64.logor (get tr.regs rd) v); next_k ())
              else out_of_fuel start
        | Xor ->
            fun () ->
              if charge tr cost then (set tr.regs rd (Int64.logxor (get tr.regs rd) v); next_k ())
              else out_of_fuel start
        | Shl ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (Int64.shift_left (get tr.regs rd) c) m);
                next_k ())
              else out_of_fuel start
        | Shr ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.shift_right_logical (get tr.regs rd) c);
                next_k ())
              else out_of_fuel start
        | Sar ->
            fun () ->
              if charge tr cost then (
                set tr.regs rd (Int64.logand (Int64.shift_right (sext s (get tr.regs rd)) c) m);
                next_k ())
              else out_of_fuel start
        | Div | Rem ->
            let div = op = Div and r = sext s v in
            fun () ->
              if charge tr cost then begin
                tr.cur_pc <- start;
                if r = 0L then raise (Cpu.Vm_fault (Division_by_zero { addr = start }));
                let l = sext s (get tr.regs rd) in
                set tr.regs rd (Int64.logand (if div then Int64.div l r else Int64.rem l r) m);
                next_k ()
              end
              else out_of_fuel start)
    | Neg rd ->
        fun () ->
          if charge tr cost then (
            set tr.regs rd (Int64.logand (Int64.neg (sext s (get tr.regs rd))) m);
            next_k ())
          else out_of_fuel start
    | Not rd ->
        fun () ->
          if charge tr cost then (
            set tr.regs rd (Int64.logand (Int64.lognot (get tr.regs rd)) m);
            next_k ())
          else out_of_fuel start
    | Cmp (r, Reg rs) ->
        fun () ->
          if charge tr cost then begin
            let l = get tr.regs r and rv = get tr.regs rs in
            tr.flags.signed_cmp <- Int64.compare (sext s l) (sext s rv);
            tr.flags.unsigned_cmp <- Int64.unsigned_compare l rv;
            next_k ()
          end
          else out_of_fuel start
    | Cmp (r, Imm i) ->
        let rv = imm i in
        let srv = sext s rv in
        fun () ->
          if charge tr cost then begin
            let l = get tr.regs r in
            tr.flags.signed_cmp <- Int64.compare (sext s l) srv;
            tr.flags.unsigned_cmp <- Int64.unsigned_compare l rv;
            next_k ()
          end
          else out_of_fuel start
    | Jcc (c, a) ->
        let g = goto a in
        let unsigned, signs = cond_signs c in
        fun () ->
          if charge tr cost then begin
            let f = if unsigned then tr.flags.unsigned_cmp else tr.flags.signed_cmp in
            if (signs lsr (compare f 0 + 1)) land 1 = 1 then g () else next_k ()
          end
          else out_of_fuel start
    | Push (Reg rs) ->
        (* [push sp] stores sp's value from before the push *)
        fun () ->
          if charge tr cost then begin
            let sp = Int64.to_int (get tr.regs Instr.sp) - 8 in
            let ok = unseen sp 8 tr.regs rs || observed start next Instr.sp (-8) 8 tr.regs rs in
            set_sp sp;
            if ok then next_k () else smc_abort ()
          end
          else out_of_fuel start
    | Push (Imm i) ->
        let v = imm i in
        fun () ->
          if charge tr cost then begin
            set tr.scratch 0 v;
            let sp = Int64.to_int (get tr.regs Instr.sp) - 8 in
            let ok = unseen sp 8 tr.scratch 0 || observed start next Instr.sp (-8) 8 tr.scratch 0 in
            set_sp sp;
            if ok then next_k () else smc_abort ()
          end
          else out_of_fuel start
    | Pop rd ->
        (* [pop sp] keeps the loaded word, not the incremented sp *)
        let to_sp = rd = Instr.sp in
        fun () ->
          if charge tr cost then begin
            tr.cur_pc <- start;
            let sp = Int64.to_int (get tr.regs Instr.sp) in
            check_limit mode limit sp 8;
            Memory.load64_into tr.mem sp tr.regs rd;
            if not to_sp then set_sp (sp + 8);
            if masked then set tr.regs rd (Int64.logand (get tr.regs rd) m);
            next_k ()
          end
          else out_of_fuel start
    | Load (W64, rd, rb, d) ->
        fun () ->
          if charge tr cost then begin
            tr.cur_pc <- start;
            let addr = Int64.to_int (get tr.regs rb) + d in
            check_limit mode limit addr 8;
            Memory.load64_into tr.mem addr tr.regs rd;
            if masked then set tr.regs rd (Int64.logand (get tr.regs rd) m);
            next_k ()
          end
          else out_of_fuel start
    | Load (w, rd, rb, d) ->
        let size = Instr.bytes_of_width w in
        let read =
          match w with
          | W8 -> Memory.read_u8
          | W16 -> Memory.read_u16
          | W32 | W64 (* W64 is matched above *) -> Memory.read_u32
        in
        fun () ->
          if charge tr cost then begin
            tr.cur_pc <- start;
            let addr = Int64.to_int (get tr.regs rb) + d in
            check_limit mode limit addr size;
            set tr.regs rd (Int64.of_int (read tr.mem addr land mi));
            next_k ()
          end
          else out_of_fuel start
    | Store (w, rb, d, src) -> (
        let size = Instr.bytes_of_width w in
        match src with
        | Reg rs ->
            fun () ->
              if charge tr cost then
                if unseen (Int64.to_int (get tr.regs rb) + d) size tr.regs rs
                   || observed start next rb d size tr.regs rs
                then next_k ()
                else smc_abort ()
              else out_of_fuel start
        | Imm i ->
            let v = imm i in
            fun () ->
              if charge tr cost then begin
                set tr.scratch 0 v;
                if unseen (Int64.to_int (get tr.regs rb) + d) size tr.scratch 0
                   || observed start next rb d size tr.scratch 0
                then next_k ()
                else smc_abort ()
              end
              else out_of_fuel start)
    | Lea (rd, rb, d) ->
        let dv = Int64.of_int d in
        fun () ->
          if charge tr cost then (
            set tr.regs rd (Int64.logand (Int64.add (get tr.regs rb) dv) m);
            next_k ())
          else out_of_fuel start
    | Rdtsc rd ->
        fun () ->
          if charge tr cost then begin
            (* rdtsc observes the clock including its own cost *)
            commit tr;
            set tr.regs rd (Int64.logand (Cycles.Clock.now tr.clock) m);
            next_k ()
          end
          else out_of_fuel start
    | Hlt | Jmp _ | Call _ | Callr _ | Ret | Out _ | In _ ->
        assert false (* terminators, never in the body *)
  in
  let exec = List.fold_right compile body tail_k in
  let end_pc =
    match term with `Term (pc, _, size) -> pc + size | `Fall pc | `Bad pc -> pc
  in
  let code =
    match term with
    | `Bad _ -> Bytes.empty
    | `Term _ | `Fall _ -> Memory.read_bytes tr.mem ~off:pc0 ~len:(end_pc - pc0)
  in
  (if end_pc > pc0 then begin
     (* extents first, so any later write into these bytes moves the
        versions recorded below *)
     Memory.note_code tr.mem ~off:pc0 ~len:(end_pc - pc0);
     let first = pc0 / Memory.page_size and last = (end_pc - 1) / Memory.page_size in
     let n = last - first + 1 in
     pages_r := Array.init n (fun i -> first + i);
     vers_r := Array.init n (fun i -> Memory.page_version tr.mem (first + i))
   end);
  tr.stats.blocks_translated <- tr.stats.blocks_translated + 1;
  self :=
    {
      b_pc = pc0;
      b_code = code;
      b_pages = !pages_r;
      b_vers = !vers_r;
      b_tag = tr.tag;
      b_exec = exec;
      b_live = true;
    };
  !self

let run ?(fuel = 200_000_000) tr cpu =
  bind tr cpu;
  let hooked = Option.is_some (Cpu.current_step_hook cpu) in
  tr.fuel <- fuel;
  tr.cur_pc <- Cpu.pc cpu;
  let rec loop () =
    (match tr.block_hook with None -> () | Some f -> f ~pc:(Cpu.pc cpu));
    let b = lookup tr ~hooked (Cpu.pc cpu) in
    match b.b_exec () with Some exit -> exit | None -> loop ()
  in
  let exit =
    match loop () with
    | exit -> exit (* every exit path committed already *)
    | exception Cpu.Vm_fault f ->
        commit tr;
        Cpu.set_pc cpu tr.cur_pc;
        Cpu.Fault f
    | exception Memory.Fault { addr; size } ->
        commit tr;
        Cpu.set_pc cpu tr.cur_pc;
        Cpu.Fault (Memory_oob { addr; size })
    | exception e ->
        (* a host exception out of a hook: the batch belongs to [cpu] *)
        let bt = Printexc.get_raw_backtrace () in
        commit tr;
        bind tr tr.idle;
        Printexc.raise_with_backtrace e bt
  in
  bind tr tr.idle;
  exit
