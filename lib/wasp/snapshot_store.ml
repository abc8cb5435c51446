type entry = {
  image : Vm.Memory.image;
  footprint : int;
  regs : int64 array;
  pc : int;
  mode : Vm.Modes.t;
  native_state : (unit -> Univ.t) option;
}

type slot = { entry : entry; mutable last_used : int }

type t = {
  entries : (string, slot) Hashtbl.t;
  capacity : int;
  mutable tick : int;               (* monotonic LRU stamp *)
  mutable evictions : int;
  mutable total_bytes : int;        (* sum of entry footprints *)
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Snapshot_store.create: capacity must be >= 1";
  {
    entries = Hashtbl.create 16;
    capacity;
    tick = 0;
    evictions = 0;
    total_bytes = 0;
  }

let count t = Hashtbl.length t.entries
let evictions t = t.evictions
let total_bytes t = t.total_bytes

let touch t slot =
  t.tick <- t.tick + 1;
  slot.last_used <- t.tick

let clear t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.entries key;
      t.total_bytes <- t.total_bytes - slot.entry.footprint

(* Same policy as the shell pool: beyond capacity, the least-recently
   used key goes. O(n) scan — the store is small by construction. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key slot ->
      match !victim with
      | Some (_, stamp) when stamp <= slot.last_used -> ()
      | _ -> victim := Some (key, slot.last_used))
    t.entries;
  match !victim with
  | None -> ()
  | Some (key, _) ->
      clear t ~key;
      t.evictions <- t.evictions + 1

let capture t ~key ~mem ~cpu ~native_state =
  let image = Vm.Memory.capture mem in
  let footprint = Vm.Memory.image_footprint image in
  let regs = Array.init Instr.num_regs (fun r -> Vm.Cpu.get_reg cpu r) in
  let entry =
    { image; footprint; regs; pc = Vm.Cpu.pc cpu; mode = Vm.Cpu.mode cpu; native_state }
  in
  clear t ~key;
  let slot = { entry; last_used = 0 } in
  Hashtbl.replace t.entries key slot;
  t.total_bytes <- t.total_bytes + footprint;
  touch t slot;
  if count t > t.capacity then evict_lru t;
  footprint

let mem t ~key = Hashtbl.mem t.entries key

let find t ~key =
  match Hashtbl.find_opt t.entries key with
  | None -> None
  | Some slot ->
      touch t slot;
      Some slot.entry

let restore_regs entry ~cpu =
  Vm.Cpu.reset cpu ~mode:entry.mode;
  Array.iteri (fun r v -> Vm.Cpu.set_reg cpu r v) entry.regs;
  Vm.Cpu.set_pc cpu entry.pc

let restore ?eager entry ~mem ~cpu =
  let footprint = Vm.Memory.restore_image ?eager mem entry.image in
  restore_regs entry ~cpu;
  Vm.Memory.clear_dirty mem;
  footprint

let restore_cow entry ~mem ~cpu =
  let pages, bytes = Vm.Memory.restore_image_cow mem entry.image in
  restore_regs entry ~cpu;
  Vm.Memory.clear_dirty mem;
  (pages, bytes)
