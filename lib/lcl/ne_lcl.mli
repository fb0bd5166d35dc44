(** Node-edge-checkable LCL problems (paper §2).

    An ne-LCL is given by input and output label alphabets over
    [V ∪ E ∪ B] plus a node constraint [C_N] and an edge constraint [C_E].
    [C_N] sees everything incident to one node (its own labels plus the
    labels of its incident edges and of its own half-edges, in port order);
    [C_E] sees one edge: the two endpoints, the edge itself, and its two
    half-edges. Constraints may not depend on identifiers or port numbers
    beyond the ordering they induce, and we keep them as plain predicates.

    A solution is correct iff [C_N] holds at every node and [C_E] at every
    edge. For a self-loop, the edge view has its two sides at the same
    node; the node view sees both half-edges of the loop on their two
    ports.

    Every check here is derived from one sweep, {!sweep}. View fields
    are mutable so it can refill one scratch view per pool slot instead
    of allocating a view per constraint evaluation; construction syntax
    is unchanged. Check functions receive views by reference, valid only
    for the duration of the call — they must not retain a view or its
    arrays. *)

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view = {
  mutable degree : int;
  mutable v_in : 'vi;
  mutable v_out : 'vo;
  mutable e_in : 'ei array;   (** incident edge inputs, port order *)
  mutable e_out : 'eo array;
  mutable b_in : 'bi array;   (** this node's half-edge inputs, port order *)
  mutable b_out : 'bo array;
}

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view = {
  mutable self_loop : bool;
  mutable u_in : 'vi;
  mutable u_out : 'vo;
  mutable w_in : 'vi;         (** other endpoint (equal to [u_*] for a self-loop) *)
  mutable w_out : 'vo;
  mutable ee_in : 'ei;
  mutable ee_out : 'eo;
  mutable bu_in : 'bi;        (** half at u (side 0 of the edge) *)
  mutable bu_out : 'bo;
  mutable bw_in : 'bi;        (** half at w (side 1) *)
  mutable bw_out : 'bo;
}

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t = {
  name : string;
  check_node : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view -> bool;
  check_edge : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view -> bool;
}

type violation = Node of int | Edge of int

val pp_violation : Format.formatter -> violation -> unit

val node_view :
  Repro_graph.Multigraph.t ->
  input:('vi, 'ei, 'bi) Labeling.t ->
  output:('vo, 'eo, 'bo) Labeling.t ->
  int ->
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view

val edge_view :
  Repro_graph.Multigraph.t ->
  input:('vi, 'ei, 'bi) Labeling.t ->
  output:('vo, 'eo, 'bo) Labeling.t ->
  int ->
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view

type bad = {
  bad_nodes : int list;  (** nodes where [C_N] fails, ascending *)
  bad_edges : int list;  (** edges where [C_E] fails, ascending *)
}

val sweep :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t ->
  Repro_graph.Multigraph.t ->
  input:('vi, 'ei, 'bi) Labeling.t ->
  output:('vo, 'eo, 'bo) Labeling.t ->
  bad
(** The one evaluation of [C_N] and [C_E] over a graph: one
    {!Repro_local.Pool.parallel_for} evaluates [C_N] at every node once,
    a second evaluates [C_E] at every edge once, in the canonical
    orientation of {!edge_view}: side [u] is half [2e], side [w] half
    [2e + 1]. Each pool slot keeps one scratch node view per degree, one
    edge view and its own lists of bad indices, which are merged and
    sorted at the end, so the result is the same at every pool size and
    a sweep allocates O(slots · max_degree) words plus three per bad
    node or edge, not a view per node or edge.

    Evaluating an edge in one orientation only is exact because every
    [C_E] must be invariant under swapping its two sides; the test suite
    checks this for every [C_E] in the tree. *)

val violations :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t ->
  Repro_graph.Multigraph.t ->
  input:('vi, 'ei, 'bi) Labeling.t ->
  output:('vo, 'eo, 'bo) Labeling.t ->
  violation list
(** {!sweep}'s bad nodes ascending, then its bad edges ascending. *)

val is_valid :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t ->
  Repro_graph.Multigraph.t ->
  input:('vi, 'ei, 'bi) Labeling.t ->
  output:('vo, 'eo, 'bo) Labeling.t ->
  bool
(** [true] iff {!sweep} finds nothing bad. *)
