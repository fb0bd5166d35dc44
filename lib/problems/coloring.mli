(** Proper (Δ+1)-coloring in [O(log* n)] rounds — a landscape reference
    point for Figure 1 (the [Θ(log* n)] complexity class).

    Algorithm (Goldberg–Plotkin–Shannon / Cole–Vishkin):
    orient edges towards the larger identifier, split them into Δ forests
    by out-port, 3-color each forest by iterated Cole–Vishkin bit reduction
    followed by shift-down/recolor rounds, combine into a [3^Δ]-coloring,
    and reduce greedily, one color class per round, down to [Δ+1].

    Every step is a constant-radius round, so the meter is charged one per
    round; the measured complexity is [O(log* n + 3^Δ)], flat in [n] for
    fixed Δ. Requires a graph without self-loops (a self-loop admits no
    proper coloring). Parallel edges are fine. *)

type output = (int, unit, unit) Repro_lcl.Labeling.t
(** Node labels are colors in [0 .. Δ]. *)

val problem : delta:int -> (unit, unit, unit, int, unit, unit) Repro_lcl.Ne_lcl.t
(** Node constraint: color in range. Edge constraint: endpoint colors
    differ (a self-loop edge is always violated). *)

val is_valid : Repro_graph.Multigraph.t -> output -> bool
(** Range check against the graph's max degree plus properness. *)

val solve : Repro_local.Instance.t -> output * Repro_local.Meter.t
(** @raise Invalid_argument on graphs with self-loops. *)

val rounds_lower_estimate : int -> int
(** [log* n] — the reference curve printed by the benchmarks. *)
