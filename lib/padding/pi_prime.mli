(** The padded LCL Π' (paper §3.3) and its solver (Lemma 4).

    Given a problem bundle for Π and the (log, Δ)-gadget family of
    Section 4, [pad] produces the bundle for Π'. Its constraints are the
    paper's constraints 1–6:

    1. port-edge halves carry ε, gadget-edge halves carry Ψ_G outputs;
    2. Ψ_G holds on every gadget component (port edges ignored);
    3. [PortErr2] exactly at port nodes with ≠ 1 incident port edges;
    4. ports facing a valid port of a GadOk gadget cannot claim
       [PortErr1]; ports facing a NoPort node or an erring gadget cannot
       claim [NoPortErr];
    5. in gadgets claiming GadOk, the Σ_list output lists the valid ports,
       copies the virtual node's Π-inputs (the node input of the Port_1
       node, the edge/half inputs of the port edges), and encodes a
       Π-node-correct output for the virtual node;
    6. gadget edges force Σ_list agreement across a gadget; port edges
       between valid ports force the Π-edge constraint on the virtual
       edge.

    The solver follows Lemma 4: prove Ψ_G per gadget component (once per
    distinct labeled component: equal copies share one proof), classify
    ports, contract valid gadgets into a virtual multigraph (phantom
    degree-1 neighbors stand in for the dangling ports that face a
    [PortErr2] port), run Π's solver on it with the instance's promise
    [n], and write the virtual solution back into Σ_list. The meter charge
    of a node in a valid gadget is [(r_Π + 1) · (D + 1)] with [r_Π] its
    virtual node's Π-charge and [D] the largest gadget diameter — the
    communication overhead of Lemma 4 — combined with its Ψ_G charge. *)

val delta_of : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Spec.t -> int
(** The gadget-family Δ used when padding this spec: the max degree of its
    hard instances. *)

val pad :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Spec.t ->
  ( 'vi Padded_types.pv_in,
    'ei Padded_types.pe_in,
    'bi Padded_types.pb_in,
    ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Padded_types.pv_out,
    unit,
    Padded_types.pb_out )
  Spec.t

val pad_packed : Spec.packed -> Spec.packed

val pad_with :
  Repro_gadget.Family.t ->
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Spec.t ->
  ( 'vi Padded_types.pv_in,
    'ei Padded_types.pe_in,
    'bi Padded_types.pb_in,
    ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Padded_types.pv_out,
    unit,
    Padded_types.pb_out )
  Spec.t
(** Theorem 1 with an arbitrary (d, Δ)-gadget family — e.g. padding with
    {!Repro_gadget.Family.linear_family} multiplies complexities by Θ(n)
    instead of Θ(log n), landing in the polynomial region of the
    landscape. @raise Invalid_argument if the family's Δ is below the max
    degree of the spec's hard instances. *)

val pad_packed_with : Repro_gadget.Family.t -> Spec.packed -> Spec.packed

val hard_instance_parts_with :
  Repro_gadget.Family.t ->
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Spec.t ->
  Random.State.t ->
  base_target:int ->
  gadget_target:int ->
  Padded_graph.t
  * ( 'vi Padded_types.pv_in,
      'ei Padded_types.pe_in,
      'bi Padded_types.pb_in )
    Repro_lcl.Labeling.t

val hard_instance_parts :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Spec.t ->
  Random.State.t ->
  base_target:int ->
  gadget_target:int ->
  Padded_graph.t
  * ( 'vi Padded_types.pv_in,
      'ei Padded_types.pe_in,
      'bi Padded_types.pb_in )
    Repro_lcl.Labeling.t
(** Like the padded spec's [hard_instance] but with the base-size /
    gadget-size split exposed — the knob of the Lemma 5 balance ablation
    (T1b). The default split is [base ≈ √target]. *)
