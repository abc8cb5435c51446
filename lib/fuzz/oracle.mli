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

type obs = {
  o_outcome : string;
  o_ret : int64;
  o_cycles : int64;
  o_hypercalls : int;
  o_denied : int;
  o_state : string;  (** MD5 of final registers + guest memory *)
  o_events : (int64 * int * int64 array * int64) list;
      (** hypercall transcript: at, nr, args, ret *)
}

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

val canary_name : canary -> string

type verdict = {
  features : string list;  (** coverage features of the canonical run *)
  recording : Profiler.Replay.t option;
      (** the case + canonical transcript, as a committed fixture would
          carry it; [None] only when the canonical arm crashed *)
  finding : (fclass * string) option;
}

val coverage_spec : string
(** The vtrace probe spec attached to the canonical arm. *)

val coarse_outcome : string -> string
(** Collapse a detailed outcome to the ["exited"]/["faulted"]/["fuel"]
    form [.vxr] recordings carry. *)

val classify : ?canary:canary -> Corpus.case -> verdict
(** Run every arm. Deterministic: same case (and canary) → same
    verdict. *)

val engine_arm : ?canary:canary -> Corpus.case -> (fclass * string) option
(** The CPU-level engine arm alone: the case's image on a bare vCPU
    under a stub hypervisor, {!Vm.Translate} vs {!Reference}, compared
    on exit, retired count, cycles, registers and memory. *)

(** {1 Exposed for tests} *)

type arm_result = Obs of obs | Crash of string

val run_arm :
  ?reset:Wasp.Runtime.reset_mode ->
  ?runs:int ->
  ?snapshot_key:string ->
  ?probes:Vtrace.Engine.t ->
  ?profiler:Profiler.Profile.t ->
  ?post:(Wasp.Runtime.t -> unit) ->
  ?recorder:Profiler.Replay.t ->
  Corpus.case ->
  arm_result

val diff_full : obs -> obs -> string option
val diff_visible : obs -> obs -> string option
