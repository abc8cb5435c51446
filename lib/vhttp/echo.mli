(** The §4.2 echo server study (Figure 4).

    A protected-mode virtine whose handler reaches C code, [recv]s an
    HTTP request through a hypercall, and [send]s it straight back. The
    guest samples rdtsc at three milestones — main entry, recv return,
    send complete — and deposits them in the argument page where the
    client can read them after the exit. *)

val compile : unit -> Vcc.Compile.compiled
(** The handler, written in the virtine C dialect and compiled for
    protected mode ("this example does not actually require 64-bit mode,
    so we omit paging"). *)

type milestones = {
  entry : int64;      (** cycles from KVM_RUN to the C entry point *)
  recv_done : int64;  (** ... to the return from recv() *)
  send_done : int64;  (** ... to the completed send() *)
}

val run_once :
  Wasp.Runtime.t -> Vcc.Compile.compiled -> payload:string -> milestones * Wasp.Runtime.result
(** Run one echo round trip: writes [payload] into the connection, runs
    the handler as a virtine, checks the echo, and extracts the
    milestone timestamps (relative to invocation start). *)
