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

    Every check here is derived from one sweep, {!sweep}. A view is a
    window, not a copy: it holds the label arrays it reads and the
    position of one node or edge in them, and checks read labels
    through the accessors below. The sweep keeps one window per pool
    slot and moves it from node to node by writing its int fields only.
    Fields are mutable so that a caller can also point a window at
    arrays of its own (Π' points one at a Σ_list). Check functions
    receive views by reference, valid only for the duration of the call
    — they must not retain a view. *)

(** {1 Raw window access}

    The fields are the raw window. Node [nv]'s labels are
    [nv.vi.(nv.node)] and [nv.vo.(nv.node)]; its port [i]
    ([0 <= i < nv.degree]) is half [h = nv.ports.(nv.lo + i)], with
    labels [nv.bi.(h)], [nv.bo.(h)] and edge labels
    [nv.ei.(h lsr nv.edge_shift)], [nv.eo.(h lsr nv.edge_shift)]. Edge
    [ev]'s labels are [ev.uvi.(ev.u)] and [ev.wvi.(ev.w)] (outputs
    likewise), [ev.eei.(ev.edge)], [ev.ubi.(ev.hu)] and [ev.wbi.(ev.hw)].
    The accessors of the next section say the same; a kernel that runs
    at every node or edge of every check (SO's, Π''s and Ψ_G's node
    kernel) reads the fields instead, because the default dune profile
    compiles with [-opaque] and so no accessor is inlined across
    modules, as
    {!Repro_graph.Multigraph}'s hot loops read its raw CSR arrays. *)

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view = {
  mutable vi : 'vi array;    (** node labels; this node's is [vi.(node)] *)
  mutable vo : 'vo array;
  mutable ei : 'ei array;    (** edge labels, at [half lsr edge_shift] *)
  mutable eo : 'eo array;
  mutable bi : 'bi array;    (** half-edge labels, indexed by half *)
  mutable bo : 'bo array;
  mutable ports : int array; (** port [i]'s half is [ports.(lo + i)] *)
  mutable node : int;
  mutable lo : int;
  mutable degree : int;
  mutable edge_shift : int;
      (** 1 on a graph (half [h]'s edge is [h / 2]); 0 when the ports
          index edge and half labels alike, as on a Σ_list *)
}

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view = {
  mutable uvi : 'vi array;   (** side u's node labels, at [u] *)
  mutable uvo : 'vo array;
  mutable wvi : 'vi array;   (** side w's node labels, at [w] *)
  mutable wvo : 'vo array;
  mutable eei : 'ei array;   (** edge labels, at [edge] *)
  mutable eeo : 'eo array;
  mutable ubi : 'bi array;   (** side u's half labels, at [hu] *)
  mutable ubo : 'bo array;
  mutable wbi : 'bi array;   (** side w's half labels, at [hw] *)
  mutable wbo : 'bo array;
  mutable u : int;
  mutable w : int;
  mutable edge : int;
  mutable hu : int;
  mutable hw : int;
  mutable loop : bool;       (** a self-loop: both sides are one node *)
}

(** {1 Reading a view} *)

val degree : (_, _, _, _, _, _) node_view -> int
val v_in : ('vi, _, _, _, _, _) node_view -> 'vi
val v_out : (_, _, _, 'vo, _, _) node_view -> 'vo

val e_in : (_, 'ei, _, _, _, _) node_view -> int -> 'ei
(** [e_in nv i]: the input of the edge on port [i], [0 <= i < degree nv]. *)

val e_out : (_, _, _, _, 'eo, _) node_view -> int -> 'eo

val b_in : (_, _, 'bi, _, _, _) node_view -> int -> 'bi
(** [b_in nv i]: the input of this node's half-edge on port [i]. *)

val b_out : (_, _, _, _, _, 'bo) node_view -> int -> 'bo
val self_loop : (_, _, _, _, _, _) edge_view -> bool
val u_in : ('vi, _, _, _, _, _) edge_view -> 'vi
val u_out : (_, _, _, 'vo, _, _) edge_view -> 'vo

val w_in : ('vi, _, _, _, _, _) edge_view -> 'vi
(** The other endpoint (the same node as [u_in] for a self-loop). *)

val w_out : (_, _, _, 'vo, _, _) edge_view -> 'vo
val ee_in : (_, 'ei, _, _, _, _) edge_view -> 'ei
val ee_out : (_, _, _, _, 'eo, _) edge_view -> 'eo

val bu_in : (_, _, 'bi, _, _, _) edge_view -> 'bi
(** The half at u (side 0 of the edge). *)

val bu_out : (_, _, _, _, _, 'bo) edge_view -> 'bo

val bw_in : (_, _, 'bi, _, _, _) edge_view -> 'bi
(** The half at w (side 1). *)

val bw_out : (_, _, _, _, _, 'bo) edge_view -> 'bo

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
(** A fresh window onto the labelings at one node. *)

val edge_view :
  Repro_graph.Multigraph.t ->
  input:('vi, 'ei, 'bi) Labeling.t ->
  output:('vo, 'eo, 'bo) Labeling.t ->
  int ->
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view
(** A fresh window onto the labelings at one edge, in {!sweep}'s
    orientation. *)

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
    {!Repro_local.Pool.parallel_range} evaluates [C_N] at every node
    once, a second evaluates [C_E] at every edge once, in the canonical
    orientation of {!edge_view}: side [u] is half [2e], side [w] half
    [2e + 1]. Each pool slot keeps one node window, one edge window and
    its own lists of bad indices, each padded onto cache lines of its
    own ({!Repro_local.Pool.padded}), and each range looks its slot up
    once; the lists are merged and sorted at
    the end, so the result is the same at every pool size. A sweep
    writes ints into its windows, never labels, and allocates O(slots)
    words plus three per bad node or edge, not a view per node or edge.

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
