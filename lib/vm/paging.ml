let pml4_addr = 0x1000
let pdpt_addr = 0x2000
let pd_addr = 0x3000

let flag_present = 1L
let flag_writable = 2L
let flag_large_page = 0x80L

let entry ~phys ~flags = Int64.logor (Int64.of_int phys) flags

let table_flags = Int64.logor flag_present flag_writable

(* The page directory, 512 entries mapping 2 MB each, is the same on
   every boot: built once here, written in one copy, never mutated. *)
let pd_entries = 512

let page_directory =
  let b = Bytes.create (8 * pd_entries) in
  let flags = Int64.logor table_flags flag_large_page in
  for i = 0 to pd_entries - 1 do
    Bytes.set_int64_le b (8 * i) (entry ~phys:(i * (2 lsl 20)) ~flags)
  done;
  b

let end_addr = pd_addr + (8 * pd_entries)

let build_identity_map mem =
  Memory.write_u64 mem pml4_addr (entry ~phys:pdpt_addr ~flags:table_flags);
  Memory.write_u64 mem pdpt_addr (entry ~phys:pd_addr ~flags:table_flags);
  Memory.write_bytes mem ~off:pd_addr page_directory;
  2 + pd_entries

let translate mem vaddr =
  if vaddr < 0 then None
  else begin
    let idx_pml4 = (vaddr lsr 39) land 0x1FF in
    let idx_pdpt = (vaddr lsr 30) land 0x1FF in
    let idx_pd = (vaddr lsr 21) land 0x1FF in
    let offset = vaddr land ((2 lsl 20) - 1) in
    let present e = Int64.logand e flag_present <> 0L in
    let phys_of e = Int64.to_int (Int64.logand e 0x000F_FFFF_FFFF_F000L) in
    let pml4e = Memory.read_u64 mem (pml4_addr + (8 * idx_pml4)) in
    if not (present pml4e) then None
    else begin
      let pdpte = Memory.read_u64 mem (phys_of pml4e + (8 * idx_pdpt)) in
      if not (present pdpte) then None
      else begin
        let pde = Memory.read_u64 mem (phys_of pdpte + (8 * idx_pd)) in
        if not (present pde) then None
        else if Int64.logand pde flag_large_page = 0L then None
        else begin
          (* 2 MB page: bits 20:0 are the offset; mask accordingly. *)
          let base = Int64.to_int (Int64.logand pde 0x000F_FFFF_FFE0_0000L) in
          Some (base + offset)
        end
      end
    end
  end
