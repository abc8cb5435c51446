(** Plane-aware deterministic mutators. Every random choice flows
    through the supplied {!Cycles.Rng.t}, so a campaign is a pure
    function of its seed.

    Image-plane mutations are opcode-aware when the blob decodes
    (instruction replace/insert/delete/splice, immediates retargeted at
    interesting machine constants) with raw byte havoc as fallback;
    ring-plane mutations touch only the data blob past the trampoline
    (header cursors, SQE descriptors/links); plan-plane mutations
    add/drop/perturb fault sites and always yield a plan that still
    parses. One in four mutations perturbs the environment (seed, fuel,
    policy) regardless of plane. *)

val rounds : rng:Cycles.Rng.t -> int -> Corpus.case -> Corpus.case
(** [rounds ~rng n c]: [n] stacked mutations (at least one). *)
