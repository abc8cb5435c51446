let base_addr = 0x500

type descriptor = {
  base : int;
  limit : int;
  executable : bool;
  long_mode : bool;
  default_32bit : bool;
  granularity_4k : bool;
}

(* x86 segment descriptor layout (8 bytes):
   bits 0-15  limit[15:0]
   bits 16-39 base[23:0]
   bits 40-47 access byte (present, ring 0, code/data, executable, RW)
   bits 48-51 limit[19:16]
   bits 52-55 flags (G, D, L, AVL)
   bits 56-63 base[31:24] *)
let encode_descriptor d =
  let open Int64 in
  let limit_lo = d.limit land 0xFFFF in
  let limit_hi = (d.limit lsr 16) land 0xF in
  let base_lo = d.base land 0xFFFFFF in
  let base_hi = (d.base lsr 24) land 0xFF in
  let access =
    0x92 (* present, ring0, S=1, RW *)
    lor (if d.executable then 0x08 else 0)
  in
  let flags =
    (if d.granularity_4k then 0x8 else 0)
    lor (if d.default_32bit then 0x4 else 0)
    lor (if d.long_mode then 0x2 else 0)
  in
  logor (of_int limit_lo)
    (logor
       (shift_left (of_int base_lo) 16)
       (logor
          (shift_left (of_int access) 40)
          (logor
             (shift_left (of_int limit_hi) 48)
             (logor (shift_left (of_int flags) 52) (shift_left (of_int base_hi) 56)))))

let decode_descriptor q =
  let open Int64 in
  let field shift mask = to_int (logand (shift_right_logical q shift) (of_int mask)) in
  let limit = field 0 0xFFFF lor (field 48 0xF lsl 16) in
  let base = field 16 0xFFFFFF lor (field 56 0xFF lsl 24) in
  let access = field 40 0xFF in
  let flags = field 52 0xF in
  {
    base;
    limit;
    executable = access land 0x08 <> 0;
    long_mode = flags land 0x2 <> 0;
    default_32bit = flags land 0x4 <> 0;
    granularity_4k = flags land 0x8 <> 0;
  }

let flat_code ~long =
  {
    base = 0;
    limit = 0xFFFFF;
    executable = true;
    long_mode = long;
    default_32bit = not long;
    granularity_4k = true;
  }

let flat_data =
  {
    base = 0;
    limit = 0xFFFFF;
    executable = false;
    long_mode = false;
    default_32bit = true;
    granularity_4k = true;
  }

let end_addr = base_addr + 24

let write mem ~long =
  Memory.write_u64 mem base_addr 0L;
  Memory.write_u64 mem (base_addr + 8) (encode_descriptor (flat_code ~long));
  Memory.write_u64 mem (base_addr + 16) (encode_descriptor flat_data);
  end_addr - base_addr
