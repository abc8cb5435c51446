(** Discrete-event simulator.

    Drives the throughput experiments (Figures 13 and 15): request
    arrivals, queueing at servers, and load profiles run on a virtual
    timeline measured in cycles. Service durations are obtained by
    actually executing the work (e.g. a virtine invocation) and taking
    the elapsed cycles on the Wasp clock, so the queueing model and the
    execution model stay consistent. *)

type t

val create : unit -> t
(** A fresh timeline at time 0. *)

val now : t -> int64
(** Current virtual time (cycles). *)

val schedule : t -> delay:int64 -> (unit -> unit) -> unit
(** Run a callback [delay] cycles from now. [delay] must be >= 0.
    Callbacks may schedule further events. Events at equal times fire in
    scheduling order. *)

val at : t -> time:int64 -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past fire immediately (at now). *)

val run : t -> unit
(** Process events in time order until the queue is empty. *)

(** {1 Single-server FIFO queue}

    Models the paper's single-threaded HTTP server: arrivals queue, the
    server executes one request at a time, and each service duration is
    measured by running the real handler. *)

module Server : sig
  type server

  val create : ?workers:int -> t -> service:(now:int64 -> int64) -> server
  (** [service ~now] performs one request at sim time [now] and returns
      its duration in cycles (e.g. elapsed Wasp-clock cycles of a virtine
      invocation). [workers] (default 1) sets how many requests are in
      service concurrently (a shared FIFO feeds all workers). *)

  val submit : server -> on_done:(wait:int64 -> service:int64 -> unit) -> unit
  (** Enqueue a request at the current sim time; [on_done] receives the
      queueing delay and service duration when it completes. *)
end
