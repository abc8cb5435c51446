(** Fuzz cases and the on-disk corpus.

    A case is the environment half of a [.vxr] recording — image bytes,
    mode, seed, policy, fuel and fault plan — so corpus entries and
    shrunk reproducers are stored {e as} [.vxr] files, each the case's
    canonical recording: both replay with [wasprun --replay], and CI
    fixtures need no second format. *)

(** The three mutated input planes (see [docs/fuzzing.md]). *)
type plane =
  | Image_bytes  (** the code blob itself is the input *)
  | Ring_batch
      (** fixed trampoline guest splats a data blob over the hypercall
          ring (header cursors + SQEs) and rings the doorbell; only the
          blob mutates *)
  | Plan  (** the {!Cycles.Fault_plan} text mutates *)

type case = {
  plane : plane;
  mode : Vm.Modes.t;
  code : string;  (** raw image bytes, loaded at {!Wasp.Layout.image_base} *)
  seed : int;
  policy : Wasp.Policy.t;  (** serializable constructors only *)
  fuel : int;
  plan : string option;  (** {!Cycles.Fault_plan.to_string} form *)
}

val digest : case -> string
(** Content hash (hex MD5) over every case field. *)

val name : case -> string
(** ["<plane-tag>-<digest prefix>"]: the image name and corpus file stem. *)

val image_of : case -> Wasp.Image.t

val mem_size_for : string -> int
(** Guest region size for a code blob: the default 64 KB, page-rounded
    up when the image would not fit. *)

val of_replay : Profiler.Replay.t -> (case, string) result
(** Rebuild a case from a parsed recording with
    {!Wasp.Runtime.of_recording}, which validates mode, policy and fault
    plan, so a corpus sweep never raises downstream. *)

val to_vxr_string : case -> string
(** The case as an environment-only recording (header from
    {!Wasp.Runtime.recording}, no transcript). *)

val of_vxr_string : string -> (case, string) result

val save_case : dir:string -> ?recording:Profiler.Replay.t -> case -> string
(** Write [recording], the case's canonical-arm recording, as
    [<name>.vxr] under [dir]; returns the path. A case whose canonical
    arm crashed has none: it is written environment-only
    ({!to_vxr_string}: no events, [total 0], empty [outcome]), which a
    later campaign loads as a seed but replay rejects. *)

val load_dir : string -> case list * (string * string) list
(** Load every [*.vxr] under a directory (sorted, deterministic).
    Malformed or invalid files come back as [(path, reason)] pairs —
    never an exception; a fuzz corpus is expected to contain junk. *)

val ring_case :
  blob:string ->
  seed:int ->
  policy:Wasp.Policy.t ->
  fuel:int ->
  plan:string option ->
  case
(** Assemble a ring-plane case: trampoline + [blob] (truncated to
    {!Wasp.Layout.ring_size}). *)

val ring_data_offset : int lazy_t
(** Byte offset of the mutable blob inside a ring-plane image (the
    encoded size of the fixed trampoline prefix). *)

val default_fuel : int
(** Per-candidate instruction budget (small: fuzz candidates must be
    cheap, and tiny budgets are themselves an interesting plane). *)

val seeds : unit -> case list
(** Built-in seed corpus: one case per plane, a shift/width/memory
    toucher, and two vcc-compiled images (a recursive fib and the
    {!Vhttp.Fileserver} handler). *)
