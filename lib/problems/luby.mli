(** Luby's randomized maximal independent set — the catalog's
    randomized MIS.

    Each iteration every still-active node draws a fresh priority from
    its private random string ({!Repro_local.Randomness}, word [t] of
    node [v] in iteration [t]); a node joins when its priority strictly
    beats every neighbour's, then members and their neighbours drop
    out. Ties block both sides for one iteration and are broken by the
    next draw, so the expected round count is [O(log n)]
    (Luby 1985; the Ligra and GraphBLAS exemplars in SNIPPETS.md are
    this loop).

    Each iteration is two neighbour sweeps over the CSR arrays (the
    neighbour-priority maximum, then member-neighbour blocking), and
    the output is byte-identical at any [REPRO_DOMAINS]. Two LOCAL
    rounds are charged per iteration: the priority exchange and the
    membership exchange. *)

type output = Mis.output
(** Same labeling shape as the deterministic MIS — {!Mis.half_out}
    claims on half-edges, membership on nodes. *)

val solve : Repro_local.Instance.t -> output * Repro_local.Meter.t
(** @raise Invalid_argument on self-loops (a looped node can never
    join, so the loop would never terminate). *)

val is_valid : Repro_graph.Multigraph.t -> output -> bool
(** Maximality + independence, via {!Mis.is_valid}. *)
