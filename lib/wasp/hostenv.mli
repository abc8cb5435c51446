(** Host-side resources a virtine client may expose through hypercalls.

    Stands in for the Linux host kernel services the paper's handlers
    delegate to ("a validated read() will turn into a read() on the host
    filesystem"): an in-memory filesystem and in-memory stream sockets.
    Handlers — not this module — decide whether a virtine may touch any of
    it. *)

type t

val create : unit -> t

(** {1 Files} *)

val add_file : t -> path:string -> string -> unit
val file_size : t -> path:string -> int option

val open_file : t -> path:string -> int option
(** Returns a descriptor, or [None] if the path does not exist. *)

val read_fd : t -> fd:int -> len:int -> bytes option
(** Read from the descriptor's offset, advancing it. [None] on a bad
    descriptor; [Some ""] at EOF. *)

val close_fd : t -> fd:int -> bool

(** {1 Sockets}

    A socket pair is a bidirectional in-memory channel; the guest holds
    one end (via send/recv hypercalls) and the driver or the event
    simulator holds the other. *)

type endpoint

val socket_pair : t -> endpoint * endpoint

val send : endpoint -> bytes -> int
(** Enqueue bytes toward the peer; returns the count written. *)

val recv : endpoint -> max:int -> bytes
(** Dequeue up to [max] bytes sent by the peer; empty if none pending. *)

