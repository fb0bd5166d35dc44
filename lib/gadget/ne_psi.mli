(** Ψ_G: the node-edge-checkable encoding of Ψ (paper §4.6).

    Ψ's [Error] label is replaced by witnesses that a node constraint or an
    edge constraint can verify from input labels alone:

    - {b node-visible} violations (duplicate half labels, wrong port index,
      boundary-pattern violations 3e/3f/3h, a center of the wrong degree,
      untruthful replicated flags or colors) justify a witness directly;
    - {b edge-visible} violations (side-label mismatches 2a/2b, index
      mismatches 1c, center rules c2b/c2c, boundary rules 3a–3d/3g via the
      replicated flags, equal endpoint colors — which is how self-loops are
      convicted) are claimed by marking the offending half [bad_edge], and
      the edge constraint re-checks the claim;
    - {b parallel edges} (and any distance-2 color clash) are claimed by
      marking two halves with the same color (paper Figure 7); the edge
      constraint verifies each claim against the far endpoint's input
      color;
    - {b path-identity violations 2c/2d} are claimed by chains A…D/A…E
      (paper Figure 8): a chain is a colored sequence of positions forced
      forward and backward along the labeled path by edge constraints, and
      a chain that is open — its holder of the first (or last) position
      does not hold the last (first) — is a witness. On a valid gadget
      every chain closes onto its initiator, so no witness can be forged.

    Chain colors come from a distance-9 coloring so that overlapping
    chains never share a color (the paper's O(log* n) additive step). *)

type chain_kind = K2c | K2d

val chain_last : chain_kind -> int
val chain_step : chain_kind -> int -> Labels.half_label
(** The label leading from position [pos] to [pos+1]. *)

type chain_id = { ccolor : int; cpos : int; ckind : chain_kind }

type status = NOk | NPtr of Psi.pointer | NWit

type node_out = {
  status : status;
  chains : chain_id list;  (** sorted, duplicate-free *)
}

type half_in = {
  bl : Labels.half_label;
  bcolor : int;
  bflags : Labels.half_flags;
}

type half_out = {
  mirror : node_out;
  bad_edge : bool;
  color_claim : int option;
  to_next : chain_id list;
  from_prev : chain_id list;
}

type problem_t =
  ( Labels.node_label, unit, half_in,
    node_out, unit, half_out )
  Repro_lcl.Ne_lcl.t

val problem : delta:int -> problem_t

type edge_constraint =
  Labels.node_label ->
  Labels.node_label ->
  node_out ->
  node_out ->
  half_in ->
  half_in ->
  half_out ->
  half_out ->
  bool
(** An edge constraint of Ψ_G as a function of the edge's labels alone:
    [u_in w_in u_out w_out bu_in bw_in bu_out bw_out], side [u]'s before
    side [w]'s. Ψ_G's edges carry no labels of their own ([unit]), and
    no Ψ_G edge constraint reads whether the edge is a self-loop. *)

val edge_ok : edge_constraint
(** Ψ_G's edge constraint; [(problem ~delta).check_edge] applies it to
    a window's labels. Π' calls it on the projections of its own
    labels, so a gadget edge of a Π' check copies no label. *)

val node_input_bad : delta:int -> Labels.node_label -> half_in array -> bool
(** A violation visible from one node's own input labels: what justifies
    a witness at that node by itself. *)

val edge_input_bad :
  Labels.node_label -> Labels.node_label -> half_in -> half_in -> bool
(** A violation visible from one edge's input labels (both endpoints and
    both halves): what a [bad_edge] mark claims. *)

val input_of : Labels.t -> (Labels.node_label, unit, half_in) Repro_lcl.Labeling.t

type solution = (node_out, unit, half_out) Repro_lcl.Labeling.t

val all_ok_solution : Labels.t -> solution

val prove :
  delta:int ->
  n:int ->
  Labels.t ->
  solution * Repro_local.Meter.t
(** The distributed prover: {!Verifier.run} plus the witness encoding.
    On a valid gadget it returns {!all_ok_solution}; on an invalid one a
    solution using only error labels on every node. *)

val is_valid : delta:int -> Labels.t -> solution -> bool

val violations :
  delta:int -> Labels.t -> solution -> Repro_lcl.Ne_lcl.violation list
