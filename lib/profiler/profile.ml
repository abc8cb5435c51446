(* Guest-level profiler for the vx vCPU.

   Two modes share one machinery:

   - [Exact]: every retired instruction's cycle cost is attributed to the
     enclosing function (per the shadow call stack), to its opcode, and to
     the full folded stack. Within an invocation, the attributed guest
     cycles plus the [vmm_name] residue equal the execute-span duration
     exactly (conservation; asserted by [test_profiler]).
   - [Sampled interval]: a cycle-budgeted PC sampler. A sample is taken
     whenever the virtual clock crosses the next sample point, so the
     sample count of a function estimates its cycles as
     [samples * interval] without per-instruction bookkeeping.

   The profiler is aggregate: it accumulates across every invocation it
   sees. *)

type mode = Exact | Sampled of int

let vmm_name = "[vmm]"

type fn_stat = {
  fn_name : string;
  mutable self_cycles : int64;  (** exact mode: cycles of instructions retired in this fn *)
  mutable instrs : int;         (** exact mode: instructions retired in this fn *)
  mutable calls : int;          (** times this fn was entered by call *)
  mutable samples : int;        (** sampled mode: PC samples landing in this fn *)
}

type op_stat = { op_name : string; mutable op_cycles : int64; mutable op_count : int }

type t = {
  mode : mode;
  fns : (string, fn_stat) Hashtbl.t;
  ops : (string, op_stat) Hashtbl.t;
  folded_tbl : (string, int64) Hashtbl.t;  (** "a;b;c" -> cycles (exact) or samples *)
  mutable symtab : Symtab.t;
  mutable clock : Cycles.Clock.t option;
  mutable stack : string list;             (** shadow call stack, innermost first *)
  mutable pending_callr : bool;            (** top frame awaits resolution at next pc *)
  mutable next_sample : int64;
  mutable guest_cycles : int64;            (** exact: total attributed guest cycles *)
  mutable host_cycles : int64;             (** execute-span residue (vm exits, dispatch) *)
  mutable inv_guest : int64;               (** guest cycles of the current invocation *)
  mutable invocations : int;
  mutable in_invocation : bool;
}

let create ?(mode = Exact) () =
  (match mode with
  | Sampled n when n <= 0 -> invalid_arg "Profile.create: sample interval must be > 0"
  | Sampled _ | Exact -> ());
  {
    mode;
    fns = Hashtbl.create 32;
    ops = Hashtbl.create 32;
    folded_tbl = Hashtbl.create 64;
    symtab = Symtab.empty;
    clock = None;
    stack = [];
    pending_callr = false;
    next_sample = 0L;
    guest_cycles = 0L;
    host_cycles = 0L;
    inv_guest = 0L;
    invocations = 0;
    in_invocation = false;
  }

let guest_cycles t = t.guest_cycles
let host_cycles t = t.host_cycles
let total_cycles t = Int64.add t.guest_cycles t.host_cycles

let fn_stat t name =
  match Hashtbl.find_opt t.fns name with
  | Some s -> s
  | None ->
      let s = { fn_name = name; self_cycles = 0L; instrs = 0; calls = 0; samples = 0 } in
      Hashtbl.add t.fns name s;
      s

let op_stat t name =
  match Hashtbl.find_opt t.ops name with
  | Some s -> s
  | None ->
      let s = { op_name = name; op_cycles = 0L; op_count = 0 } in
      Hashtbl.add t.ops name s;
      s

let opcode_key : Instr.t -> string = function
  | Instr.Hlt -> "hlt"
  | Nop -> "nop"
  | Mov _ -> "mov"
  | Bin (op, _, _) -> Instr.binop_name op
  | Neg _ -> "neg"
  | Not _ -> "not"
  | Cmp _ -> "cmp"
  | Jmp _ -> "jmp"
  | Jcc _ -> "jcc"
  | Call _ -> "call"
  | Callr _ -> "callr"
  | Ret -> "ret"
  | Push _ -> "push"
  | Pop _ -> "pop"
  | Load _ -> "load"
  | Store _ -> "store"
  | Lea _ -> "lea"
  | Out _ -> "out"
  | In _ -> "in"
  | Rdtsc _ -> "rdtsc"

let folded_key stack = String.concat ";" (List.rev stack)

let add_folded t key by =
  let prev = Option.value ~default:0L (Hashtbl.find_opt t.folded_tbl key) in
  Hashtbl.replace t.folded_tbl key (Int64.add prev by)

let begin_invocation t ~symbols ~clock =
  t.symtab <- Symtab.of_symbols symbols;
  t.clock <- Some clock;
  t.stack <- [];
  t.pending_callr <- false;
  t.inv_guest <- 0L;
  t.invocations <- t.invocations + 1;
  t.in_invocation <- true;
  match t.mode with
  | Sampled interval ->
      t.next_sample <- Int64.add (Cycles.Clock.now clock) (Int64.of_int interval)
  | Exact -> ()

(* The vCPU step hook: called once per retired instruction, after its
   cost was charged to the clock, before it executes. *)
let on_step t ~pc ~instr ~cost =
  (* resolve an indirect call's callee now that we can see its first pc *)
  if t.pending_callr then begin
    t.pending_callr <- false;
    let callee = Symtab.name_at t.symtab pc in
    (fn_stat t callee).calls <- (fn_stat t callee).calls + 1;
    match t.stack with _ :: rest -> t.stack <- callee :: rest | [] -> t.stack <- [ callee ]
  end;
  if t.stack = [] then t.stack <- [ Symtab.name_at t.symtab pc ];
  let current = List.hd t.stack in
  (match t.mode with
  | Exact ->
      let s = fn_stat t current in
      s.self_cycles <- Int64.add s.self_cycles (Int64.of_int cost);
      s.instrs <- s.instrs + 1;
      t.inv_guest <- Int64.add t.inv_guest (Int64.of_int cost);
      let o = op_stat t (opcode_key instr) in
      o.op_cycles <- Int64.add o.op_cycles (Int64.of_int cost);
      o.op_count <- o.op_count + 1;
      add_folded t (folded_key t.stack) (Int64.of_int cost)
  | Sampled interval -> (
      match t.clock with
      | Some clk when Int64.compare (Cycles.Clock.now clk) t.next_sample >= 0 ->
          let s = fn_stat t current in
          s.samples <- s.samples + 1;
          add_folded t (folded_key t.stack) 1L;
          t.next_sample <- Int64.add (Cycles.Clock.now clk) (Int64.of_int interval)
      | Some _ | None -> ()));
  (* maintain the shadow stack across control transfers *)
  match instr with
  | Instr.Call a ->
      let callee = Symtab.name_at t.symtab a in
      (fn_stat t callee).calls <- (fn_stat t callee).calls + 1;
      t.stack <- callee :: t.stack
  | Instr.Callr _ ->
      t.stack <- "?" :: t.stack;
      t.pending_callr <- true
  | Instr.Ret -> (
      match t.stack with _ :: rest -> t.stack <- rest | [] -> ())
  | _ -> ()

let end_invocation t ~execute_cycles =
  if t.in_invocation then begin
    t.in_invocation <- false;
    t.guest_cycles <- Int64.add t.guest_cycles t.inv_guest;
    let host = Int64.sub execute_cycles t.inv_guest in
    let host = if Int64.compare host 0L < 0 then 0L else host in
    t.host_cycles <- Int64.add t.host_cycles host;
    if t.mode = Exact && Int64.compare host 0L > 0 then add_folded t vmm_name host
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type fn_row = {
  row_name : string;
  row_cycles : int64;  (** exact: attributed cycles; sampled: samples * interval *)
  row_instrs : int;
  row_calls : int;
  row_samples : int;
}

let functions t =
  let rows =
    Hashtbl.fold
      (fun _ (s : fn_stat) acc ->
        let cycles =
          match t.mode with
          | Exact -> s.self_cycles
          | Sampled interval -> Int64.of_int (s.samples * interval)
        in
        {
          row_name = s.fn_name;
          row_cycles = cycles;
          row_instrs = s.instrs;
          row_calls = s.calls;
          row_samples = s.samples;
        }
        :: acc)
      t.fns []
  in
  let rows =
    if t.mode = Exact && Int64.compare t.host_cycles 0L > 0 then
      {
        row_name = vmm_name;
        row_cycles = t.host_cycles;
        row_instrs = 0;
        row_calls = 0;
        row_samples = 0;
      }
      :: rows
    else rows
  in
  List.sort
    (fun a b ->
      match compare b.row_cycles a.row_cycles with
      | 0 -> compare a.row_name b.row_name
      | c -> c)
    rows

let opcodes t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.ops []
  |> List.sort (fun a b ->
         match compare b.op_cycles a.op_cycles with
         | 0 -> compare a.op_name b.op_name
         | c -> c)

let folded t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.folded_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let folded_lines t =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %Ld\n" k v) (folded t))

let render t =
  let buf = Buffer.create 1024 in
  let mode_str =
    match t.mode with
    | Exact -> "exact"
    | Sampled i -> Printf.sprintf "sampled, every %d cycles" i
  in
  Buffer.add_string buf
    (Printf.sprintf "guest profile (%s; %d invocation%s)\n" mode_str t.invocations
       (if t.invocations = 1 then "" else "s"));
  let rows = functions t in
  let total = List.fold_left (fun acc r -> Int64.add acc r.row_cycles) 0L rows in
  let pct c =
    if Int64.compare total 0L <= 0 then "-"
    else Printf.sprintf "%.1f%%" (Int64.to_float c /. Int64.to_float total *. 100.0)
  in
  Buffer.add_string buf
    (Stats.Report.table
       ~header:[ "function"; "cycles"; "%"; "instrs"; "calls"; "samples" ]
       (List.map
          (fun r ->
            [
              r.row_name;
              Int64.to_string r.row_cycles;
              pct r.row_cycles;
              string_of_int r.row_instrs;
              string_of_int r.row_calls;
              string_of_int r.row_samples;
            ])
          rows
       @ [ [ "total"; Int64.to_string total; "100.0%"; ""; ""; "" ] ]));
  if Hashtbl.length t.ops > 0 then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Stats.Report.table
         ~header:[ "opcode"; "cycles"; "count" ]
         (List.map
            (fun o ->
              [ o.op_name; Int64.to_string o.op_cycles; string_of_int o.op_count ])
            (opcodes t)))
  end;
  Buffer.contents buf

let export t hub =
  let reg = Telemetry.Hub.metrics hub in
  List.iter
    (fun r ->
      Telemetry.Metrics.incr
        ~by:(Int64.to_int r.row_cycles)
        (Telemetry.Metrics.counter reg
           ~labels:[ ("fn", r.row_name) ]
           ~help:"self cycles attributed to a guest function by the profiler"
           "wasp_profile_fn_cycles"))
    (functions t);
  List.iter
    (fun o ->
      Telemetry.Metrics.incr ~by:(Int64.to_int o.op_cycles)
        (Telemetry.Metrics.counter reg
           ~labels:[ ("op", o.op_name) ]
           ~help:"cycles attributed to a guest opcode by the profiler"
           "wasp_profile_opcode_cycles"))
    (opcodes t)
