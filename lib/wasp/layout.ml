let arg_area = 0x0
let arg_area_size = 0x500
let stack_top = 0x8000
let image_base = 0x8000
let default_mem_size = 64 * 1024

(* Hypercall ring: carved out of the bottom of the stack region and
   deliberately straddling the 0x5000 page boundary, so CoW snapshots of
   an in-flight ring always span two pages. *)
let ring_base = 0x4800
let ring_entries = 32
let ring_hdr_size = 0x40
let ring_sqe_size = 64
let ring_cqe_size = 16
let ring_sq_head = ring_base
let ring_sq_tail = ring_base + 8
(* ring_base + 16: the guest's completion cursor *)
let ring_cq_tail = ring_base + 24
let ring_sqes = ring_base + ring_hdr_size
let ring_cqes = ring_sqes + (ring_entries * ring_sqe_size)
let ring_size = ring_hdr_size + (ring_entries * (ring_sqe_size + ring_cqe_size))
let ring_end = ring_base + ring_size
