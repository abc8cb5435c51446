type component = { name : string; cycles : int }

let perform ~mem ~clock ~rng ~target =
  let charged = ref [] in
  let charge name cycles =
    let cycles = Cycles.Costs.jitter_pos rng ~pct:0.04 cycles in
    Cycles.Clock.advance_int clock cycles;
    charged := { name; cycles } :: !charged
  in
  (match target with
  | Modes.Real -> ()
  | Modes.Protected | Modes.Long ->
      let long = Modes.equal target Modes.Long in
      let _bytes = Gdt.write mem ~long in
      charge "load 32-bit gdt" Cycles.Costs.lgdt32;
      charge "protected transition" Cycles.Costs.protected_transition;
      charge "jump to 32-bit" Cycles.Costs.ljmp32;
      if long then begin
        (* Build the three-level identity map with real stores; the charge
           is per uncached store plus KVM's EPT construction, which is how
           Table 1's ~28K-cycle paging component arises. *)
        let stores = Paging.build_identity_map mem in
        charge "paging ident. map" ((stores * Cycles.Costs.mem_cold) + Cycles.Costs.ept_build);
        charge "long transition" Cycles.Costs.long_transition;
        charge "jump to 64-bit" Cycles.Costs.ljmp64
      end);
  charge "first instruction" Cycles.Costs.first_instruction;
  List.rev !charged

let min_mem_size = function
  | Modes.Real -> 0
  | Modes.Protected -> Gdt.end_addr
  | Modes.Long -> max Gdt.end_addr Paging.end_addr

