(** Deterministic invocation record/replay: the [.vxr] format.

    A recording holds the image bytes (MD5-checked), the runtime RNG
    seed, the policy, the fuel budget, the cycle-stamped hypercall
    transcript, and the final outcome of one invocation. The simulator is
    deterministic, so re-executing under the same seed must reproduce
    every stamp; {!diff} reports cycle-for-cycle divergences. This module
    owns the format only: [Wasp.Runtime] builds, finishes, re-executes
    and judges recordings. *)

type event = { at : int64; nr : int; args : int64 array; ret : int64 }
(** One hypercall: virtual-cycle stamp at dispatch, number, argument
    registers, and the value returned in r0. *)

type t

val create :
  name:string ->
  mode:string ->
  origin:int ->
  entry:int ->
  mem_size:int ->
  code:string ->
  seed:int ->
  policy:string ->
  fuel:int ->
  ?fault_plan:string ->
  unit ->
  t
(** The one constructor: the whole header and an empty transcript.
    [mode] is ["real"], ["protected"] or ["long"]; [policy] is
    ["deny_all"], ["allow_all"] or ["mask:<hex>"]; [fault_plan] is the
    armed plan's one-line text, kept in the caller's spelling so replay
    re-arms an identical plan. *)

val add_event : t -> at:int64 -> nr:int -> args:int64 array -> ret:int64 -> unit

val finish : t -> cycles:int64 -> outcome:string -> return_value:int64 -> unit
(** The trailer: [outcome] is ["exited"], ["faulted"] or ["fuel"].
    [Wasp.Runtime.run] calls this on the recording attached to it. *)

val events : t -> event list
val event_count : t -> int

val image_name : t -> string
val mode : t -> string
val origin : t -> int
val entry : t -> int
val mem_size : t -> int
val code : t -> string
val seed : t -> int
val policy : t -> string
val fuel : t -> int

val fault_plan : t -> string option
(** The textual fault plan recorded with this invocation, if any. *)
val total_cycles : t -> int64
val outcome : t -> string
val image_matches : t -> bytes -> bool
(** [image_matches t view] checks [view] (the image bytes as read back
    through the guest's logical page view) against the recorded MD5 —
    the integrity check stays representation-independent, so [.vxr]
    files recorded against flat memory verify against the paged store. *)

val to_string : t -> string
(** Render as a [.vxr] file (line-oriented text). *)

val of_string : string -> (t, string) result
(** Parse a [.vxr] file. Every header and trailer line ([image] through
    [code], then [total], [outcome], [ret]) must appear exactly once and
    [faultplan] at most once, so no field takes a default and no later
    line overrides an earlier one. Verifies the embedded image MD5 and
    that the recording describes a loadable machine (positive bounded
    [mem_size], non-negative [origin]/[entry]/[fuel], code fitting
    inside the region, entry inside it). Truncated or garbage input is
    always a typed [Error], never an exception — replay drivers and the
    fuzz corpus loader rely on this. *)

val to_file : t -> string -> unit
(** Write the {!to_string} rendering to [path]. *)

val diff : t -> t -> string list
(** [diff recorded replayed]: every header field that differs, named by
    its [.vxr] key, then the hypercall count, the first difference of
    each transcript event in execution order, and the trailer (empty =
    deterministic replay succeeded). At most 10 are itemized. *)
