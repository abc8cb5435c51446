let flag_halt = 1L
let flag_link = 2L
let flag_vec = 4L

type sqe = {
  nr : int;
  flags : int64;
  args : int64 array; (* 5 *)
  link : int64;
}

let has flags bit = Int64.logand flags bit <> 0L

let slot index = Int64.to_int (Int64.rem index (Int64.of_int Layout.ring_entries))

let sqe_addr index = Layout.ring_sqes + (slot index * Layout.ring_sqe_size)
let cqe_addr index = Layout.ring_cqes + (slot index * Layout.ring_cqe_size)

let sq_head mem = Vm.Memory.read_u64 mem Layout.ring_sq_head
let sq_tail mem = Vm.Memory.read_u64 mem Layout.ring_sq_tail
let set_sq_head mem v = Vm.Memory.write_u64 mem Layout.ring_sq_head v
let set_cq_tail mem v = Vm.Memory.write_u64 mem Layout.ring_cq_tail v

let read_sqe mem ~index =
  let base = sqe_addr index in
  let f i = Vm.Memory.read_u64 mem (base + (8 * i)) in
  {
    nr = Int64.to_int (f 0);
    flags = f 1;
    args = [| f 2; f 3; f 4; f 5; f 6 |];
    link = f 7;
  }

let write_cqe mem ~index ~nr ~result =
  let base = cqe_addr index in
  Vm.Memory.write_u64 mem base result;
  Vm.Memory.write_u64 mem (base + 8) (Int64.of_int nr)

let cqe_result mem ~index = Vm.Memory.read_u64 mem (cqe_addr index)

let link_delta link = Int64.to_int (Int64.logand link 0xffL)
let link_pos link = Int64.to_int (Int64.logand (Int64.shift_right_logical link 8) 0xffL)

type iov = { iov_ptr : int64; iov_len : int64 }

let iov_size = 16
let max_iov = 8

let read_iov mem ~ptr ~i =
  let base = Int64.to_int ptr + (i * iov_size) in
  { iov_ptr = Vm.Memory.read_u64 mem base; iov_len = Vm.Memory.read_u64 mem (base + 8) }
