(** Deterministic fault-injection plans.

    A plan names {e sites} — places in the simulated virtualization stack
    where something can go wrong (a spurious VM exit, a failed
    [KVM_CREATE_VM], a corrupted snapshot page) — and arms each with a
    trigger. Consumers ask {!fires} once per {e opportunity} (each
    [KVM_RUN], each VM creation, each snapshot restore); the plan answers
    deterministically:

    - {!Prob} sites draw from a per-site RNG stream derived from the plan
      seed, so two plans with equal seeds fire identically and adding a
      site never perturbs another site's stream;
    - {!Every} sites fire on a fixed schedule of opportunity indices,
      with no randomness at all.

    Because every decision is a pure function of (seed, site, opportunity
    index), a chaos run is replayable: re-arm an identical plan (same
    seed, same sites — see {!of_string}) and the same faults fire at the
    same points, cycle for cycle. *)

type trigger =
  | Prob of float
      (** Fire each opportunity with this probability (in [0, 1]),
          drawn from the site's own seeded stream. *)
  | Every of { start : int; interval : int }
      (** Fire at 0-based opportunity indices [start], [start+interval],
          [start+2*interval], ... ([interval = 0] fires once, at
          [start]). *)

type t

val create : ?seed:int -> (string * trigger) list -> t
(** A fresh, armed plan. [seed] (default 0xFA17) drives every [Prob]
    site. @raise Invalid_argument on a probability outside [0, 1], a
    negative [start]/[interval], a duplicate site, or a site name
    containing [';'], ['='] or whitespace (they would break the textual
    form). *)

val fires : t -> site:string -> bool
(** Consume one opportunity at [site]; true if the plan injects a fault
    here. Unknown sites never fire (and are not counted). *)

val total_injected : t -> int
(** Faults fired so far, over every site. *)

val to_string : t -> string
(** One-line textual form, e.g.
    ["seed=0xfa17;spurious_exit=p0.05;guest_hang=@50+100"], sites in
    creation order. Round-trips
    through {!of_string}; embedded in [.vxr] recordings so chaos runs
    replay faithfully. *)

val of_string : string -> (t, string) result
(** Parse the textual form. Sites are separated by [';'] or newlines;
    blank segments and [#]-comments are skipped, so the same parser reads
    both the one-line form and a [--fault-plan] file. Triggers are
    [p<float>] (probability) or [@<start>+<interval>] (schedule); an
    optional [seed=<int>] segment (decimal or 0x-hex) sets the seed. *)
