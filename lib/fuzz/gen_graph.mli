(** Structure-aware graph generators.

    Graphs are generated as {e recipes} — a node count plus raw edge
    proposals — and materialized by {!to_graph}, which enforces the
    structural side conditions (degree bound, simplicity, bipartiteness)
    by construction. Because the side conditions are enforced at
    materialization time, {e every} shrink of a recipe is still a valid
    recipe: dropping edges, lowering endpoints, or lowering [n] can never
    produce an ill-formed case, which is what lets counterexamples shrink
    all the way down. *)

type shape =
  | Any  (** multigraph: self-loops and parallel edges allowed *)
  | Simple  (** no self-loops, no parallel edges *)
  | Bipartite
      (** edges forced across the bipartition [\[0, ⌈n/2⌉) | \[⌈n/2⌉, n)];
          no self-loops *)

type recipe = {
  r_n : int;  (** number of nodes, ≥ 1 *)
  r_max_deg : int;  (** per-node degree cap, ≥ 1 *)
  r_shape : shape;
  r_edges : (int * int) list;
      (** raw endpoint proposals; interpreted modulo the node count (and
          the bipartition for [Bipartite]), and skipped when they would
          violate the cap or the shape *)
}

val to_graph : recipe -> Repro_graph.Multigraph.t
(** Materialize: fold the proposals in order, skipping any edge that
    would exceed [r_max_deg] at an endpoint (a self-loop needs two free
    ports) or violate the shape. *)

val pp_recipe : Format.formatter -> recipe -> unit
(** One-line rendering including the materialized edge list. *)

val nodes_of : recipe -> int

val gen : ?max_n:int -> ?max_deg:int -> shape -> recipe Gen.t
(** [n] uniform in [1..max_n] (default 40), cap uniform in
    [1..max_deg] (default 4), up to [2·max_n] edge proposals drawn
    independently of [n], so shrinking [n] keeps the proposals (and a
    failing edge shrinks with them). *)

type regular = { g_n : int; g_d : int; g_seed : int }
(** A configuration-model d-regular multigraph: [n·d] even by
    construction ({!to_regular} rounds [n] up). Shrinks toward small
    [n], small [d] and seed 0. *)

val to_regular : regular -> Repro_graph.Multigraph.t
val pp_regular : Format.formatter -> regular -> unit

val regular_nodes : regular -> int
(** The node count {!to_regular} will actually use. *)

val gen_regular : ?max_n:int -> ?min_d:int -> ?max_d:int -> unit -> regular Gen.t
(** [n] uniform in [4..max_n] (default 40), [d] in [min_d..max_d]
    (defaults 3..3). *)

val gen_simple_regular : ?max_n:int -> ?min_d:int -> ?max_d:int -> unit -> regular Gen.t
(** Same recipe type, materialized with rejection-sampled simplicity
    ({!Repro_graph.Generators.random_simple_regular}); use
    {!to_simple_regular}. *)

val to_simple_regular : regular -> Repro_graph.Multigraph.t
