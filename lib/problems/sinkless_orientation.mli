(** Sinkless orientation — the paper's base problem Π¹ (§2 Figure 3, §5).

    Orient every edge so that no node of degree at least 3 is a sink.
    As in the literature, nodes of degree ≤ 2 are exempt (this makes the
    LCL solvable on every graph, including the disconnected instances of
    Lemma 5); a self-loop counts as an outgoing edge for its node.

    Known complexity on bounded-degree graphs: deterministic [Θ(log n)],
    randomized [Θ(log log n)] (Brandt et al. 2016; Chang, Kopelowitz,
    Pettie 2016; Ghaffari, Su 2017).

    In the node-edge formalism, outputs live on half-edges: each side of an
    edge is labeled [Out] or [In]; the edge constraint forces the two sides
    to be opposite, the node constraint requires an [Out] at every node of
    degree ≥ 3. *)

type orientation = Out | In

val pp_orientation : Format.formatter -> orientation -> unit

type output = (unit, unit, orientation) Repro_lcl.Labeling.t

val problem : (unit, unit, unit, unit, unit, orientation) Repro_lcl.Ne_lcl.t

val trivial_input : Repro_graph.Multigraph.t -> (unit, unit, unit) Repro_lcl.Labeling.t

val is_valid : Repro_graph.Multigraph.t -> output -> bool

val solve_deterministic : Repro_local.Instance.t -> output * Repro_local.Meter.t
(** Correct on every graph. Strategy: tree components are oriented away
    from a canonical root; in cyclic components, every node that lies on a
    cycle routes to a canonical short cycle of its 2-edge-connected class
    and the rest of the component routes towards those nodes, all edges
    pointing "towards the cycles", which leaves no sinks.

    The meter charges each node the radius a gather-based node would need
    to reproduce its decision: distance to the canonical cycle region plus
    the cycle length (tree components: the component diameter). On
    min-degree-3 inputs — all hard instances — this measures [Θ(log n)]
    on locally tree-like graphs and [Θ(cycle length)] on tree-of-cycles
    graphs, the paper's deterministic complexity shape. *)

val solve_randomized : Repro_local.Instance.t -> output * Repro_local.Meter.t
(** Orient every edge with a private coin, then repair: every sink
    searches a growing radius for a path to a node that can afford to lose
    an out-edge (out-degree ≥ 2, or degree ≤ 2) and the path is flipped to
    point away from the sink, which fixes the sink and creates no new
    one. Conflicting repairs are serialized by identifier priority.
    Never fails; the meter charge of a node is the repair radius it
    participated in (O(1) for the ~[1 - 2^{-Δ}] fraction untouched by any
    repair). See DESIGN.md for why this stands in for the LLL-based
    [Θ(log log n)] algorithm. *)

val solve_randomized_frontier :
  Repro_local.Instance.t ->
  output * Repro_local.Meter.t
(** The frontier (wave) variant of {!solve_randomized}: same private-coin
    initial orientation, but all sinks repair at once through a
    multi-source Voronoi BFS over one shared {!Repro_local.Frontier_set}
    wave — a round costs O(frontier nodes + frontier edges), which is
    what lets the randomized solver run at n = 10^6. Each unclaimed node
    joins the region of its minimum-root-id frontier neighbour; a region
    retires as soon as it claims a node that can afford an extra
    incoming edge, and all path flips are deferred to the end (regions
    are node-disjoint, so the flips commute). Regions walled in by
    others fall back to the sequential repair in sink-id order. Output
    is a valid sinkless orientation (not byte-equal to
    {!solve_randomized}'s — the repair paths differ); deterministic at
    any pool size. While {!Repro_obs.Span} is armed each wave round's
    [wave.round] span carries its frontier size [active], scanned
    half-edges [edges] and representation [dense] (DESIGN.md §9). *)

val count_sinks : Repro_graph.Multigraph.t -> output -> int
(** Number of degree-≥3 nodes without an [Out] half — 0 on valid outputs. *)

val hard_instance : Random.State.t -> n:int -> Repro_graph.Multigraph.t
(** Random 3-regular multigraph (configuration model), the standard
    lower-bound family: locally tree-like, min degree 3. [n] is rounded
    up to even. *)
