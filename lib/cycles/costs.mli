(** Calibrated cost model.

    Every constant is in cycles on the paper's {i tinker} testbed
    (AMD EPYC 7281, 2.69 GHz, Linux 5.9.12) unless noted otherwise, and is
    either taken directly from the paper (Table 1, Figure 2, §6.2) or
    back-derived from a latency the paper reports. Centralizing them here
    makes the calibration auditable and lets benches ablate individual
    components. *)

(** {1 Guest instruction costs} *)

val alu : int
(** Simple register ALU op (add/sub/logic/mov). *)

val mul : int
val div : int

val mem : int
(** L1-hit load/store. *)

val mem_cold : int
(** Uncached memory write, e.g. first-touch page-table stores; chosen so
    that building the 1 GB identity map (2 MB pages, 3 levels, ~515 PTE
    stores plus CR3/EPT work) lands near Table 1's 28109 cycles. *)

val branch : int
val call : int
val rdtsc : int
(** rdtsc reads take tens of cycles on Zen. *)

(** {1 Mode transitions — Table 1} *)

val protected_transition : int  (** cr0.PE flip: 3217. *)
val long_transition : int       (** EFER.LME + cr4.PAE: 681. *)
val ljmp32 : int                (** far jump into 32-bit segment: 175. *)
val ljmp64 : int                (** far jump into 64-bit segment: 190. *)
val lgdt32 : int                (** load 32-bit GDT: 4118. *)
val first_instruction : int     (** fetch of first guest instruction: 74. *)
val ept_build : int
(** KVM-side EPT construction triggered by the identity mapping; part of the
    28109-cycle paging component. *)

(** {1 Host virtualization costs — Figure 2 / Figure 8} *)

val ioctl_syscall : int
(** Ring 3 -> ring 0 -> ring 3 syscall round trip for an ioctl. *)

val kvm_run_checks : int
(** KVM's sanity checks on the KVM_RUN path. *)

val vmentry : int
val vmexit : int

val vmrun_total : int
(** The full "vmrun" lower bound of Figure 2: ioctl + checks + entry + exit.
    Roughly 10K cycles (~3.7 us). *)

val kvm_create_vm : int
(** KVM_CREATE_VM: VMCB/VMCS and in-kernel state allocation (~200K). *)

val kvm_create_vcpu : int
val kvm_memory_region : int

val function_call : int       (** null native call+return: ~10. *)
val pthread_spawn_join : int  (** pthread_create+join: ~30K. *)
val process_spawn : int       (** fork+exec+exit+wait: ~1.3M (~0.5 ms). *)

(** {1 SGX (Intel i7-10750H, reported at the same 2.69 GHz scale)} *)

val sgx_ecreate : int
val sgx_eadd_page : int  (** per 4 KB page: EADD+EEXTEND measurement. *)
val sgx_einit : int
val sgx_ecall : int      (** enclave entry: ~5 us. *)

(** {1 Memory bandwidth — Figure 12} *)

val memcpy_cost : int -> int
(** [memcpy_cost bytes] in cycles. *)

val memset_cost : int -> int

val cow_page_fault : int
(** Per-page cost of a copy-on-write reset: the minor fault + PTE fixup
    that accompanies each dirty-page copy (the SEUSS-style reset the
    paper's §7.2 anticipates). *)

val ept_violation : int
(** Handling one EPT write-protection violation: the exit, walking the
    EPT, and re-entering — excluding the page copy itself (charge
    {!memcpy_cost} [page_size] on top for a CoW break). Sits between the
    bare vmexit/vmentry pair and the paper's full hypercall round trip
    because no user-space crossing is needed. *)

val ept_map_page : int
(** Installing one EPT leaf entry (write-protecting a page at snapshot
    capture, or mapping a shared page on restore). Same order as a PTE
    store burst within {!ept_build}. *)

val ept_root_swap : int
(** Repointing a vCPU at a pre-built EPT root (plus the implied TLB/VPID
    flush): the O(1) part of a snapshot restore, independent of image
    size. *)

(** {1 Hypercall path} *)

val hypercall_guest_side : int
(** OUT instruction until the exit is architecturally visible. *)

val hypercall_dispatch : int
(** Wasp-side decode + policy check + handler dispatch overhead. *)

val hypercall_round_trip : int
(** Full guest->host->guest crossing excluding the handler body:
    vmexit + ioctl return + dispatch + KVM_RUN + vmentry. The paper calls
    these exits "doubly expensive due to the ring transitions". *)

(** {1 Host kernel service costs (hypercall handler bodies)} *)

val host_read : int
val host_write : int
val host_open : int
val host_close : int
val host_stat : int
val host_send : int
val host_recv : int

(** {1 Noise} *)

val jitter : Rng.t -> pct:float -> int -> int
(** [jitter rng ~pct c] perturbs [c] by a log-normal factor with ~[pct]
    relative spread, modelling measurement noise. Result >= 0. *)

val jitter_pos : Rng.t -> pct:float -> int -> int
(** One-sided jitter: the result is never below [c]. Used where the paper
    reports minimum observed latencies (Table 1), so the minimum of many
    trials converges to the calibrated value. *)

val scheduler_outlier : Rng.t -> int option
(** With small probability, returns a large host-scheduling delay; the
    paper removed such outliers with Tukey's method, and so do our benches. *)
