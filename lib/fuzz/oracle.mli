(** The differential oracle: execute one case under every configuration
    the determinism contracts say must agree, and turn any disagreement
    into a finding.

    Arms: {!Vm.Translate} vs {!Reference} on a bare vCPU under a stub
    hypervisor (cycle-exact), [`Memcpy] vs [`Cow] snapshot restore
    (guest-visible results; timing excluded by design), a [.vxr]
    serialize → reparse → re-execute round trip, and host exceptions
    anywhere. Canaries are deliberately wrong
    harness-side arms used by the fuzz smoke test to prove a planted bug
    is detected. *)

type fclass =
  | Host_exception  (** an exception escaped the runtime *)
  | Engine_divergence  (** translator vs reference stepper *)
  | Restore_divergence  (** memcpy vs CoW snapshot restore *)
  | Replay_divergence  (** .vxr round trip broke *)
  | Canary_divergence  (** a planted harness bug was detected *)

val fclass_name : fclass -> string

type canary = Shift_mask | Cycle_skew

val canary_of_string : string -> canary option
(** ["shift-mask"] / ["cycle-skew"]. *)

type verdict = {
  features : string list;  (** coverage features of the canonical run *)
  recording : Profiler.Replay.t option;
      (** the case + canonical transcript, as a committed fixture would
          carry it; [None] only when the canonical arm crashed *)
  finding : (fclass * string) option;
}

val classify : ?canary:canary -> ?cache:Vm.Translate.t -> Corpus.case -> verdict
(** Run every arm. Deterministic: same case (and canary) → same
    verdict, whatever [cache] holds. *)

val engine_arm :
  ?canary:canary -> ?cache:Vm.Translate.t -> Corpus.case -> (fclass * string) option
(** The CPU-level engine arm alone: the case's image on a bare vCPU
    under a stub hypervisor, {!Vm.Translate} vs {!Reference}, compared
    on exit, retired count, cycles, registers and memory. The translator
    runs on [cache] (default: a fresh one); a campaign passes one cache
    to every case, so each runs over the blocks of the cases before it. *)
