let alu = 1
let mul = 3
let div = 20
let mem = 4
let mem_cold = 50
let branch = 1
let call = 2
let rdtsc = 30

let protected_transition = 3217
let long_transition = 681
let ljmp32 = 175
let ljmp64 = 190
let lgdt32 = 4118
let first_instruction = 74
let ept_build = 2100

let ioctl_syscall = 1400
let kvm_run_checks = 1100
let vmentry = 3200
let vmexit = 3800

let vmrun_total = ioctl_syscall + kvm_run_checks + vmentry + vmexit

let kvm_create_vm = 210_000
let kvm_create_vcpu = 60_000
let kvm_memory_region = 18_000

let function_call = 10
let pthread_spawn_join = 30_000
let process_spawn = 1_300_000

let sgx_ecreate = 270_000
let sgx_eadd_page = 7_500
let sgx_einit = 1_600_000
let sgx_ecall = 13_500

(* 6.7 GB/s on tinker => 2.69e9 / 6.7e9 ~= 0.40 cycles/byte *)
let memcpy_cycles_per_byte = 2.69 /. 6.7

(* streaming stores are faster than copies *)
let memset_cycles_per_byte = 2.69 /. 11.0

let memcpy_cost bytes = int_of_float (float_of_int bytes *. memcpy_cycles_per_byte)
let memset_cost bytes = int_of_float (float_of_int bytes *. memset_cycles_per_byte)

let cow_page_fault = 450

let ept_violation = 2400
let ept_map_page = 210
let ept_root_swap = 850

let hypercall_guest_side = 150
let hypercall_dispatch = 400
let hypercall_round_trip = vmexit + ioctl_syscall + hypercall_dispatch + kvm_run_checks + vmentry

let host_read = 1_200
let host_write = 1_100
let host_open = 2_500
let host_close = 700
let host_stat = 900
let host_send = 55_000
let host_recv = 62_000

let jitter rng ~pct c =
  if c = 0 then 0
  else begin
    let sigma = pct in
    let factor = Rng.lognormal rng ~mu:(-.(sigma *. sigma) /. 2.0) ~sigma in
    max 0 (int_of_float (float_of_int c *. factor))
  end

let jitter_pos rng ~pct c =
  if c = 0 then 0
  else c + int_of_float (float_of_int c *. pct *. abs_float (Rng.gaussian rng))

let scheduler_outlier rng =
  (* ~0.5% of trials hit a host scheduling event of 50-500 us. *)
  if Rng.float rng < 0.005 then Some (135_000 + Rng.int rng 1_200_000) else None
