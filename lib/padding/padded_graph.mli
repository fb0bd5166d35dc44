(** Padded graphs (paper Definition 3 and Figure 2).

    [build] replaces every node of a base graph [g] with a copy of a valid
    gadget and turns every base edge into a [PortEdge] between the two
    matching port nodes: the base edge occupying port [p] (0-based) of node
    [v] attaches to the node labeled [Port_{p+1}] of [v]'s gadget.

    Requires [degree g v <= delta] for the chosen gadget family Δ. The base
    graph may have self-loops (the two halves use two distinct ports, hence
    two distinct port nodes of one gadget) and parallel edges. *)

type t = {
  padded : Repro_graph.Multigraph.t;
  delta : int;
  base : Repro_graph.Multigraph.t;
  gadget_of : int -> Repro_gadget.Labels.t;
      (** the gadget chosen for each base node *)
  node_offset : int array;  (** first padded id of each base node's gadget *)
  base_node_of : int array;  (** padded node -> base node *)
  port_edge_of : int array;  (** base edge -> padded edge id *)
  edge_is_port : bool array;  (** padded edge -> is it a PortEdge *)
  port_nodes : int array array;
      (** base node -> padded id of its gadget's Port_i at index i-1 *)
  half_gad : int array;
      (** padded half -> half id inside its gadget, or -1 on port edges *)
  half_base : int array;
      (** padded half -> base half id, or -1 on gadget edges *)
}

val build :
  Repro_graph.Multigraph.t ->
  delta:int ->
  gadget_for:(int -> Repro_gadget.Labels.t) ->
  t

val port_node : t -> int -> int -> int
(** [port_node p v i] is the padded id of the [Port_i] node (1-based) of
    base node [v]'s gadget. *)

val input_labeling :
  t ->
  base_input:('vi, 'ei, 'bi) Repro_lcl.Labeling.t ->
  dei:'ei ->
  dbi:'bi ->
  ('vi Padded_types.pv_in, 'ei Padded_types.pe_in, 'bi Padded_types.pb_in)
  Repro_lcl.Labeling.t
(** The Π'-input of the padded graph: gadget labels everywhere; the base
    Π-input copied onto the gadget nodes (every node of [v]'s gadget gets
    [base_input.v.(v)]), the base edge inputs onto the port edges and their
    halves; defaults elsewhere.

    Copies share immutable records. Every gadget edge holds one record.
    Base node [v]'s gadget halves hold [v - 1]'s records when both carry
    the physically same gadget ([==]), and its nodes do too when their
    Π-inputs are also [==]; otherwise the copy gets fresh records. Port
    edges and port halves get a record each. Values are as if every
    label were built fresh; only the number of records differs. *)

val stretch_stats : t -> float * float
(** (mean, max) over gadgets of the pairwise within-gadget port distances —
    the factor by which padding stretched one base hop (F2 experiment). *)
