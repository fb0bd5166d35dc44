(** Random output labelings of a fixed graph, for the checker oracles
    and tests.

    Each labeling starts from a structurally plausible one (every edge
    oriented, a colour per node, the halves of an MIS or matching
    consistent with its members) and then corrupts a few labels, so the
    constraints fail sparsely and in varied places rather than almost
    everywhere. All draws come from the [Random.State] passed in, in a
    fixed order, so a labeling replays from its seed. *)

val so : Random.State.t -> Repro_graph.Multigraph.t -> Repro_problems.Sinkless_orientation.output
(** Each edge oriented one way at random, then each half flipped with
    probability 1/8. *)

val coloring : Random.State.t -> Repro_graph.Multigraph.t -> Repro_problems.Coloring.output
(** Colours uniform in [0 .. Δ] (Δ the max degree), with probability
    1/16 the out-of-range colour [Δ + 1]. *)

val mis : Random.State.t -> Repro_graph.Multigraph.t -> Repro_problems.Mis.output
(** {!Repro_problems.Mis.of_members} of a random member set (each node
    with probability 1/3), then each node bit and each half field
    flipped with probability 1/16. *)

val matching : Random.State.t -> Repro_graph.Multigraph.t -> Repro_problems.Matching.output
(** {!Repro_problems.Matching.of_edges} of a random edge set (each edge
    with probability 1/3), then each node and edge bit flipped with
    probability 1/16. *)
