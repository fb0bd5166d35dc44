(** Maximal independent set in [O(log* n + Δ)] rounds — a landscape
    reference point for Figure 1.

    In the node-edge formalism the domination constraint must be visible
    from one node, so each node copies onto each of its half-edges both its
    own membership and a claim about the far endpoint's membership; the
    edge constraint ties the claims to the truth, and the node constraint
    can then require a member neighbor via its own half-edges (the
    reformulation trick the paper mentions in §2).

    Solver: (Δ+1)-color with {!Coloring}, then sweep the color classes:
    class-[c] nodes join if no neighbor joined yet. Requires a graph
    without self-loops. *)

type half_out = { mine : bool; claim : bool }

type output = (bool, unit, half_out) Repro_lcl.Labeling.t

val problem : (unit, unit, unit, bool, unit, half_out) Repro_lcl.Ne_lcl.t

val is_valid : Repro_graph.Multigraph.t -> output -> bool

val solve : Repro_local.Instance.t -> output * Repro_local.Meter.t
(** @raise Invalid_argument on graphs with self-loops. *)

val of_members : Repro_graph.Multigraph.t -> bool array -> output
(** Wrap a membership vector into the ne-LCL output encoding (used by
    tests to feed hand-built sets to the checker). *)
