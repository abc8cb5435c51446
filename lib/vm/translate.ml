(* Decode-once superblock translation: the vx execution engine.

   Each basic block is decoded once into a *superblock*: an OCaml closure
   chain with one direct-threaded continuation per instruction, chained
   on fallthrough and static branch targets. Blocks are keyed by (pc,
   cpu_mode, flavour) and invalidated by the page content versions in
   Memory, so self-modifying writes and Pool.release/CoW restores flush
   exactly the stale blocks.

   Every instruction charges its exact Instr.cost, bumps retired, and
   honors fuel. Cycle and retired charges are batched in plain ints and
   committed to the Clock/CPU at every point a host observer could look:

     - VM exits (hlt/out/in) and Rdtsc;
     - before every guest memory *write* — a store can break a CoW page,
       and the EPT fault hook reads Clock.now and Cpu.pc mid-write, so
       the clock and pc must be architecturally exact there;
     - in the dispatcher's fault handler (reads/pops fault lazily);
     - before every step-hook call (the hooked flavour, below).

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
}

(* A chain slot caches the resolved target block of a static edge
   (fallthrough, jmp, call, taken jcc) so steady-state control transfer
   is a validity check plus a tail call, not a table lookup. *)
type slot = { mutable s_blk : block option }

and block = {
  b_epoch : int;          (* Memory.epoch at translation time *)
  b_pages : int array;    (* pages the block's code bytes span *)
  b_vers : int array;     (* their content versions at translation time *)
  b_exec : unit -> Cpu.exit_reason option;
      (* [Some exit] = VM exit; [None] = control left the chain
         (indirect branch, invalidation, undecodable pc): re-dispatch at
         the CPU's pc. *)
}

type t = {
  cpu : Cpu.t;
  mem : Memory.t;
  clock : Cycles.Clock.t;
  table : (int, block) Hashtbl.t;
  mutable t_epoch : int;  (* epoch the table's entries belong to *)
  mutable cyc : int;      (* cycles charged but not yet committed *)
  mutable steps : int;    (* instructions retired but not yet committed *)
  mutable fuel : int;
  mutable cur_pc : int;   (* start pc of the instruction in flight *)
  mutable block_hook : (pc:int -> unit) option;
  stats : stats;
}

let create cpu =
  {
    cpu;
    mem = Cpu.mem cpu;
    clock = Cpu.clock cpu;
    table = Hashtbl.create 64;
    t_epoch = Memory.epoch (Cpu.mem cpu);
    cyc = 0;
    steps = 0;
    fuel = 0;
    cur_pc = 0;
    block_hook = None;
    stats = { blocks_translated = 0; invalidations = 0 };
  }

let stats t = t.stats
let flush_cache t = Hashtbl.reset t.table
let set_block_hook t h = t.block_hook <- h

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

let mode_index = function Modes.Real -> 0 | Modes.Protected -> 1 | Modes.Long -> 2
let key_of pc mode ~hooked = (pc lsl 3) lor (mode_index mode lsl 1) lor Bool.to_int hooked

(* Superblocks stop at 128 instructions; longer straight-line runs chain
   through a synthetic fallthrough edge. *)
let max_block = 128

let pages_current mem pages vers =
  let n = Array.length pages in
  let rec go i =
    i >= n
    || (Memory.page_version mem (Array.unsafe_get pages i) = Array.unsafe_get vers i
       && go (i + 1))
  in
  go 0

let block_valid tr b =
  b.b_epoch = Memory.epoch tr.mem && pages_current tr.mem b.b_pages b.b_vers

let rec lookup tr ~hooked pc =
  let e = Memory.epoch tr.mem in
  if e <> tr.t_epoch then begin
    (* pool reset: every cached block decoded stale bytes *)
    Hashtbl.reset tr.table;
    tr.t_epoch <- e
  end;
  let key = key_of pc (Cpu.mode tr.cpu) ~hooked in
  match Hashtbl.find_opt tr.table key with
  | Some b when block_valid tr b -> b
  | Some _ ->
      tr.stats.invalidations <- tr.stats.invalidations + 1;
      Hashtbl.remove tr.table key;
      let b = translate tr ~hooked pc in
      Hashtbl.replace tr.table key b;
      b
  | None ->
      let b = translate tr ~hooked pc in
      Hashtbl.replace tr.table key b;
      b

and translate tr ~hooked pc0 =
  let cpu = tr.cpu in
  let mem = tr.mem in
  let mode = Cpu.mode cpu in
  let regs = Cpu.regs cpu in
  (* Pass 1: decode the block once. Stops at control flow, VM exits, an
     undecodable pc, or the length cap. *)
  let rec scan pc n acc =
    if n >= max_block then (List.rev acc, `Fall pc)
    else
      match Cpu.fetch cpu pc with
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
  let pages_r = ref [||] and vers_r = ref [||] in
  let smc_ok () = pages_current mem !pages_r !vers_r in
  let smc_abort () =
    tr.stats.invalidations <- tr.stats.invalidations + 1;
    None
  in
  let out_of_fuel start =
    commit tr;
    Cpu.set_pc cpu start;
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
          Cpu.set_pc cpu start;
          (match Cpu.current_step_hook cpu with Some h -> h ~pc:start ~instr ~cost | None -> ());
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
      | Some b when block_valid tr b -> b.b_exec ()
      | _ ->
          let b = lookup tr ~hooked target in
          slot.s_blk <- Some b;
          b.b_exec ()
  in
  let operand : Instr.operand -> unit -> int64 = function
    | Reg r -> fun () -> Array.unsafe_get regs r
    | Imm i ->
        let v = Modes.mask mode i in
        fun () -> v
  in
  (* Branch-free per-mode constants so the per-instruction closures skip
     the [Modes.mask]/[Modes.sext] mode dispatch: and-with-(-1) and
     shift-by-0 are identities in long mode. *)
  let mask_c =
    match mode with
    | Modes.Real -> 0xFFFFL
    | Modes.Protected -> 0xFFFFFFFFL
    | Modes.Long -> -1L
  in
  let sext_s = 64 - Modes.width_bits mode in
  let mk v = Int64.logand v mask_c in
  let sx v = Int64.shift_right (Int64.shift_left v sext_s) sext_s in
  let count_c =
    match mode with Modes.Real | Modes.Protected -> 31L | Modes.Long -> 63L
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
           decodable, drop this block and re-dispatch to translate them. *)
        let key0 = key_of pc0 mode ~hooked in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel pc
          else begin
            tr.cur_pc <- pc;
            ignore (Cpu.fetch cpu pc);
            Hashtbl.remove tr.table key0;
            Cpu.set_pc cpu pc;
            smc_abort ()
          end
    | `Term (start, instr, size) -> (
        let cost = Instr.cost instr in
        let next = start + size in
        let retire () =
          tr.cyc <- tr.cyc + cost;
          tr.steps <- tr.steps + 1
        in
        (* hlt/out/in: a VM exit, resumable after the instruction *)
        let vm_exit exit =
          fun () ->
            if tr.fuel <= 0 then out_of_fuel start
            else begin
              tr.fuel <- tr.fuel - 1;
              retire ();
              commit tr;
              Cpu.set_pc cpu next;
              Some (exit ())
            end
        in
        with_hook start instr
        @@
        match instr with
        | Hlt -> vm_exit (fun () -> Cpu.Halt)
        | Out (port, src) ->
            let srcf = operand src in
            vm_exit (fun () -> Cpu.Io_out { port; value = srcf () })
        | In (rd, port) -> vm_exit (fun () -> Cpu.Io_in { port; reg = rd })
        | Jmp a ->
            let g = goto a in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                g ()
              end
        | Call a ->
            let g = goto a in
            let retv = Int64.of_int next in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                tr.cur_pc <- start;
                (* the push may CoW-fault: hook observes clock + pc *)
                commit tr;
                Cpu.set_pc cpu next;
                Cpu.push cpu retv;
                if smc_ok () then g ()
                else begin
                  Cpu.set_pc cpu a;
                  smc_abort ()
                end
              end
        | Callr r ->
            let retv = Int64.of_int next in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                tr.cur_pc <- start;
                commit tr;
                Cpu.set_pc cpu next;
                Cpu.push cpu retv;
                (* register read after the push (callr through sp) *)
                Cpu.set_pc cpu (Cpu.branch_target cpu (Array.unsafe_get regs r));
                None
              end
        | Ret ->
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                retire ();
                tr.cur_pc <- start;
                Cpu.set_pc cpu (Cpu.branch_target cpu (Cpu.pop cpu));
                None
              end
        | _ -> assert false (* only VM exits and branches terminate *))
  in
  (* Pass 2: compile body instructions back-to-front, each closure
     continuing into the next. *)
  let compile (start, (instr : Instr.t), size) next_k =
    let cost = Instr.cost instr in
    let next = start + size in
    (* register-only ops inline the batched cycles/retired bookkeeping to
       avoid a call per retired instruction; the memory-touching ops
       (which pay a guest memory access anyway) share it via [retire] *)
    let retire () =
      tr.cyc <- tr.cyc + cost;
      tr.steps <- tr.steps + 1
    in
    with_hook start instr
    @@
    match instr with
    | Instr.Nop ->
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            next_k ()
          end
    | Mov (rd, src) -> (
        (* operands are invariantly mode-masked, so reg-to-reg moves
           need no re-mask *)
        match src with
        | Instr.Reg rs ->
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                tr.cyc <- tr.cyc + cost;
                tr.steps <- tr.steps + 1;
                Array.unsafe_set regs rd (Array.unsafe_get regs rs);
                next_k ()
              end
        | Instr.Imm i ->
            let v = Modes.mask mode i in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                tr.cyc <- tr.cyc + cost;
                tr.steps <- tr.steps + 1;
                Array.unsafe_set regs rd v;
                next_k ()
              end)
    | Bin (op, rd, src) -> (
        let srcf = operand src in
        (* mode-masked inputs in, mask applied on writeback *)
        let simple fop =
          fun () ->
            if tr.fuel <= 0 then out_of_fuel start
            else begin
              tr.fuel <- tr.fuel - 1;
              tr.cyc <- tr.cyc + cost;
              tr.steps <- tr.steps + 1;
              Array.unsafe_set regs rd (mk (fop (Array.unsafe_get regs rd) (srcf ())));
              next_k ()
            end
        in
        match op with
        | Instr.Add -> simple Int64.add
        | Instr.Sub -> simple Int64.sub
        | Instr.Mul -> simple Int64.mul
        | Instr.And -> simple Int64.logand
        | Instr.Or -> simple Int64.logor
        | Instr.Xor -> simple Int64.logxor
        | Instr.Shl ->
            simple (fun l r -> Int64.shift_left l (Int64.to_int (Int64.logand r count_c)))
        | Instr.Shr ->
            simple (fun l r ->
                Int64.shift_right_logical l (Int64.to_int (Int64.logand r count_c)))
        | Instr.Sar ->
            simple (fun l r ->
                Int64.shift_right (sx l) (Int64.to_int (Int64.logand r count_c)))
        | Instr.Div | Instr.Rem ->
            (* signed, on the sign-extended operands *)
            let fop = if op = Instr.Div then Int64.div else Int64.rem in
            fun () ->
              if tr.fuel <= 0 then out_of_fuel start
              else begin
                tr.fuel <- tr.fuel - 1;
                tr.cyc <- tr.cyc + cost;
                tr.steps <- tr.steps + 1;
                tr.cur_pc <- start;
                let r = sx (srcf ()) in
                if r = 0L then raise (Cpu.Vm_fault (Division_by_zero { addr = start }));
                Array.unsafe_set regs rd (mk (fop (sx (Array.unsafe_get regs rd)) r));
                next_k ()
              end)
    | Neg rd ->
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            Array.unsafe_set regs rd (mk (Int64.neg (sx (Array.unsafe_get regs rd))));
            next_k ()
          end
    | Not rd ->
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            Array.unsafe_set regs rd (mk (Int64.lognot (Array.unsafe_get regs rd)));
            next_k ()
          end
    | Cmp (r, src) ->
        let srcf = operand src in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            let l = Array.unsafe_get regs r and rv = srcf () in
            Cpu.set_cmp cpu
              ~signed:(Int64.compare (sx l) (sx rv))
              ~unsigned:(Int64.unsigned_compare l rv);
            next_k ()
          end
    | Jcc (c, a) ->
        let g = goto a in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            if Cpu.eval_cond cpu c then g () else next_k ()
          end
    | Push src ->
        let srcf = operand src in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            tr.cur_pc <- start;
            commit tr;
            Cpu.set_pc cpu next;
            Cpu.push cpu (srcf ());
            if smc_ok () then next_k () else smc_abort ()
          end
    | Pop rd ->
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            tr.cur_pc <- start;
            Cpu.set_reg cpu rd (Cpu.pop cpu);
            next_k ()
          end
    | Load (w, rd, rb, d) ->
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            tr.cur_pc <- start;
            let addr = Int64.to_int (Array.unsafe_get regs rb) + d in
            Array.unsafe_set regs rd (mk (Cpu.read_mem cpu w addr));
            next_k ()
          end
    | Store (w, rb, d, src) ->
        let srcf = operand src in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            tr.cur_pc <- start;
            commit tr;
            Cpu.set_pc cpu next;
            let addr = Int64.to_int (Array.unsafe_get regs rb) + d in
            Cpu.write_mem cpu w addr (srcf ());
            (* the store may have rewritten this very block *)
            if smc_ok () then next_k () else smc_abort ()
          end
    | Lea (rd, rb, d) ->
        let dv = Int64.of_int d in
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            tr.cyc <- tr.cyc + cost;
            tr.steps <- tr.steps + 1;
            Array.unsafe_set regs rd (mk (Int64.add (Array.unsafe_get regs rb) dv));
            next_k ()
          end
    | Rdtsc rd ->
        fun () ->
          if tr.fuel <= 0 then out_of_fuel start
          else begin
            tr.fuel <- tr.fuel - 1;
            retire ();
            (* rdtsc observes the clock including its own cost *)
            commit tr;
            Array.unsafe_set regs rd
              (Modes.mask mode (Cycles.Clock.now tr.clock));
            next_k ()
          end
    | Hlt | Jmp _ | Call _ | Callr _ | Ret | Out _ | In _ ->
        assert false (* terminators, never in the body *)
  in
  let exec = List.fold_right compile body tail_k in
  let end_pc =
    match term with `Term (pc, _, size) -> pc + size | `Fall pc | `Bad pc -> pc
  in
  (if end_pc > pc0 then begin
     let first = pc0 / Memory.page_size and last = (end_pc - 1) / Memory.page_size in
     let n = last - first + 1 in
     pages_r := Array.init n (fun i -> first + i);
     vers_r := Array.init n (fun i -> Memory.page_version mem (first + i))
   end);
  tr.stats.blocks_translated <- tr.stats.blocks_translated + 1;
  { b_epoch = Memory.epoch mem; b_pages = !pages_r; b_vers = !vers_r; b_exec = exec }

let run ?(fuel = 200_000_000) tr =
  let cpu = tr.cpu in
  let hooked = Option.is_some (Cpu.current_step_hook cpu) in
  tr.fuel <- fuel;
  tr.cur_pc <- Cpu.pc cpu;
  let rec loop () =
    (match tr.block_hook with None -> () | Some f -> f ~pc:(Cpu.pc cpu));
    let b = lookup tr ~hooked (Cpu.pc cpu) in
    match b.b_exec () with Some exit -> exit | None -> loop ()
  in
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
