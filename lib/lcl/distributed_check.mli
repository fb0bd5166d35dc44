(** The distributed verifier behind the definition of an LCL (paper §2):
    "there must exist a constant-time distributed algorithm that can check
    the correctness of a solution".

    This module runs that algorithm: in one round every node learns the
    labels of its neighbours (and of their half-edges), then evaluates
    its node constraint and the edge constraint of every incident edge.
    The round's verdicts are read off {!Ne_lcl.sweep}: node [v] accepts
    iff [C_N] holds at [v] and [C_E] holds on every edge at [v]. A
    globally correct solution is accepted at every node; an incorrect
    one is rejected exactly at the nodes that violate [C_N] or touch an
    edge that violates [C_E]. The node-centric reference checker
    ([Reference.node_verdicts] in the fuzz library), which rebuilds each
    node's views from its radius-1 ball, confirms the verdicts per node
    in the tests and in the [dcheck] fuzz target. Verdicts are
    bit-identical at any [REPRO_DOMAINS]. *)

type verdict = {
  accepts : bool array;  (** per-node accept *)
  all_accept : bool;
  rounds : int;          (** always 1: LCLs are constant-radius checkable *)
}

val run :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Ne_lcl.t ->
  Repro_local.Instance.t ->
  input:('vi, 'ei, 'bi) Labeling.t ->
  output:('vo, 'eo, 'bo) Labeling.t ->
  verdict

val declared_rounds : int
(** [1]: the round bound the checker declares to the provenance
    auditor — LCLs are constant-radius checkable by definition. *)

val audited_run :
  ?label:string ->
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Ne_lcl.t ->
  Repro_local.Instance.t ->
  input:('vi, 'ei, 'bi) Labeling.t ->
  output:('vo, 'eo, 'bo) Labeling.t ->
  verdict * Repro_obs.Provenance.certificate
(** [run], then its locality certificate: the declared
    {!declared_rounds} bound replayed as an engine flood
    ({!Repro_local.Audit.run_flood}), the way every solver is audited.
    The flood's influence sets are exactly the checker round's — each
    node's radius-1 ball. *)
