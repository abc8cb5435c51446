(** Canned hypercall handlers.

    The general-purpose handlers Wasp "provides out-of-the-box" (§5.1):
    POSIX-like file and socket services that validate every guest-supplied
    pointer and length before touching host state, then delegate to
    {!Hostenv}. Each charges the calibrated host-kernel service cost.
    Custom client handlers can override any of these per invocation. *)

exception Validation_failed

val canned : int -> Inv.handler option
(** The built-in handler for a hypercall number, if one exists. [exit] and
    [snapshot] are handled by the run loop itself, not here. Handlers
    return {!Hc.err_fault} (and count a pointer violation) when guest
    pointers fail validation rather than raising. *)
