(** Binary min-heap keyed by (release time, sequence number): the event
    queue of {!Sim} and each {!Cores} run queue. Entries pop in [at]
    order, and at equal [at] in [seq] order. *)

type 'a entry = { at : int64; seq : int; value : 'a }

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val push : 'a t -> 'a entry -> unit
val peek : 'a t -> 'a entry option
val pop : 'a t -> 'a entry option
