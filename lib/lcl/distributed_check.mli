(** The distributed verifier behind the definition of an LCL (paper §2):
    "there must exist a constant-time distributed algorithm that can check
    the correctness of a solution".

    This module runs that algorithm: in one round every node learns the
    labels of its neighbours (and of their half-edges), then evaluates
    its node constraint and the edge constraint of every incident edge.
    The round is executed as one direct pass over the CSR arrays — the
    message a port delivers is the mate half-edge, already addressable —
    so no engine mailbox is built. A globally correct solution is
    accepted at every node; an incorrect one is rejected at some node —
    and the rejecting nodes are exactly those adjacent to a violation,
    which the centralized checker {!Ne_lcl.violations} confirms
    (cross-checked in the tests and by the [dcheck] fuzz target).
    Verdicts are bit-identical at any [REPRO_DOMAINS]. *)

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
