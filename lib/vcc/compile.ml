exception Compile_error of string

type virtine_info = {
  func : Ast.func;
  image : Wasp.Image.t;
  asm : Asm.program;
  policy : Wasp.Policy.t;
  snapshot : bool;
}

(* A function built for native calls, with the memory and translation
   cache every call of it reuses *)
type native = {
  n_asm : Asm.program;
  n_image : Wasp.Image.t;
  n_mem : Vm.Memory.t;
  n_trans : Vm.Translate.t;
}

type compiled = {
  ast : Ast.program;
  unit_name : string;
  mem_size : int option;
  optimize : bool;
  virtine_list : virtine_info list;
  native_cache : (string, native) Hashtbl.t;
}

let wrap f =
  try f () with
  | Lexer.Lex_error { loc; msg } ->
      raise (Compile_error (Format.asprintf "lex error at %a: %s" Ast.pp_loc loc msg))
  | Parser.Parse_error { loc; msg } ->
      raise (Compile_error (Format.asprintf "parse error at %a: %s" Ast.pp_loc loc msg))
  | Sema.Sema_error { loc; msg } ->
      raise (Compile_error (Format.asprintf "error at %a: %s" Ast.pp_loc loc msg))
  | Codegen.Codegen_error msg | Asm.Asm_error msg -> raise (Compile_error msg)

let policy_of_annotation ~snapshot (a : Ast.annotation) : Wasp.Policy.t =
  (* The snapshot hypercall is runtime infrastructure (it exposes nothing
     external), so the compiler grants it whenever snapshotting is on. *)
  let snapshot_bits = if snapshot then [ Wasp.Hc.snapshot ] else [] in
  match a with
  | Ast.Not_virtine | Ast.Virtine -> Wasp.Policy.of_list snapshot_bits
  | Ast.Virtine_permissive -> Wasp.Policy.allow_all
  | Ast.Virtine_config mask ->
      Wasp.Policy.Mask
        (Int64.logor mask (Wasp.Policy.mask_of_list snapshot_bits))

let build_image prog ~unit_name ~mode ~mem_size ~snapshot ~optimize (f : Ast.func) =
  let reach = Callgraph.from prog ~root:f.Ast.fname in
  let items = Codegen.gen_image_items prog ~root:f ~snapshot reach in
  let items = if optimize then Optim.peephole items else items in
  let asm =
    Asm.assemble ~origin:Wasp.Layout.image_base ~entry:Vlibc.entry_label items
  in
  let image =
    Wasp.Image.of_program
      ~name:(Printf.sprintf "%s:%s" unit_name f.Ast.fname)
      ~mode ?mem_size asm
  in
  (asm, image)

let compile ?(snapshot = true) ?(mode = Vm.Modes.Long) ?mem_size ?(name = "unit")
    ?(optimize = false) src =
  wrap (fun () ->
      let parsed = Parser.parse src in
      let parsed = if optimize then Optim.fold_program parsed else parsed in
      let prog = Sema.check parsed in
      let virtine_list =
        List.map
          (fun (f : Ast.func) ->
            let asm, image =
              build_image prog ~unit_name:name ~mode ~mem_size ~snapshot ~optimize f
            in
            {
              func = f;
              image;
              asm;
              policy = policy_of_annotation ~snapshot f.Ast.annot;
              snapshot;
            })
          (Callgraph.virtine_roots prog)
      in
      {
        ast = prog;
        unit_name = name;
        mem_size;
        optimize;
        virtine_list;
        native_cache = Hashtbl.create 4;
      })

let ast c = c.ast
let virtines c = c.virtine_list

let find_virtine c name =
  List.find_opt (fun vi -> vi.func.Ast.fname = name) c.virtine_list

let invoke w c fname args ?handlers ?conn ?fuel () =
  match find_virtine c fname with
  | None -> raise Not_found
  | Some vi ->
      let snapshot_key = if vi.snapshot then Some vi.image.Wasp.Image.name else None in
      Wasp.Runtime.run w vi.image ~policy:vi.policy ?handlers ~args ?conn ?snapshot_key
        ?fuel ()

let native_program c fname =
  match Hashtbl.find_opt c.native_cache fname with
  | Some cached -> cached
  | None ->
      let f =
        match Ast.find_func c.ast fname with
        | Some f -> f
        | None -> raise (Compile_error (Printf.sprintf "no function %s" fname))
      in
      let asm, image =
        wrap (fun () ->
            build_image c.ast ~unit_name:c.unit_name ~mode:Vm.Modes.Long
              ~mem_size:c.mem_size ~snapshot:false ~optimize:c.optimize f)
      in
      let built =
        {
          n_asm = asm;
          n_image = image;
          n_mem = Vm.Memory.create ~size:image.Wasp.Image.mem_size;
          n_trans = Vm.Translate.create ();
        }
      in
      Hashtbl.replace c.native_cache fname built;
      built

let invoke_native ~clock c fname args ?(fuel = 500_000_000) () =
  let { n_asm = asm; n_image = image; n_mem = mem; n_trans = tr } =
    native_program c fname
  in
  (* the last call's memory, zero again with its page buffers kept; its
     new tag makes each block revalidate against the code loaded here,
     as a pooled shell's blocks do *)
  Vm.Memory.reset_zero mem;
  Vm.Memory.write_bytes mem ~off:image.Wasp.Image.origin image.Wasp.Image.code;
  (* a native process is already initialized: point the allocator at the
     heap without running the crt0 path *)
  let heap_ptr = Asm.lookup asm Vlibc.heap_ptr_label in
  let heap_start = Asm.lookup asm "__heap_start" in
  Vm.Memory.write_u64 mem heap_ptr (Int64.of_int heap_start);
  List.iteri (fun i v -> Vm.Memory.write_u64 mem (8 * i) v) args;
  let cpu = Vm.Cpu.create ~mem ~mode:Vm.Modes.Long ~clock in
  Vm.Cpu.set_pc cpu (Asm.lookup asm Vlibc.post_init_label);
  Vm.Cpu.set_sp cpu Wasp.Layout.stack_top;
  Cycles.Clock.advance_int clock Cycles.Costs.function_call;
  let rec loop () =
    (* [fuel] budgets the whole invocation, across every resume *)
    let fuel_left = fuel - Int64.to_int (Vm.Cpu.instructions_retired cpu) in
    match if fuel_left <= 0 then Vm.Cpu.Out_of_fuel else Vm.Translate.run ~fuel:fuel_left tr cpu with
    | Vm.Cpu.Halt -> Vm.Cpu.get_reg cpu 0
    | Vm.Cpu.Io_out { port; value } when port = Wasp.Hc.port ->
        let nr = Int64.to_int value in
        if nr = Wasp.Hc.exit_ then Vm.Cpu.get_reg cpu 1
        else begin
          (* natively, libc calls hit the host directly; model them as
             succeeding with no isolation cost *)
          Vm.Cpu.set_reg cpu 0 0L;
          loop ()
        end
    | Vm.Cpu.Io_out _ | Vm.Cpu.Io_in _ ->
        Vm.Cpu.set_reg cpu 0 0L;
        loop ()
    | Vm.Cpu.Fault f ->
        raise
          (Compile_error
             (Format.asprintf "native execution of %s faulted: %a" fname
                (fun ppf f -> Vm.Cpu.pp_exit ppf (Vm.Cpu.Fault f))
                f))
    | Vm.Cpu.Out_of_fuel ->
        raise (Compile_error (Printf.sprintf "native execution of %s ran out of fuel" fname))
  in
  loop ()
