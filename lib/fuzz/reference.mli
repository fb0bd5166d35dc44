(** The references the fuzz oracles and tests hold the engine and the
    constraint sweep against: {!run_boxed} for
    {!Repro_local.Frontier.run}, {!node_verdicts} for
    {!Repro_lcl.Ne_lcl.sweep}.

    [run_boxed] is the straightforward reading of the LOCAL model: every
    round scans all [n] nodes, mailbox slots are option-boxed, and every
    live node gets a fresh [msgs] array per round (so [receive] may even
    retain it). It keeps the engine's semantics — round 0 with every node
    live, last-message-repeated for halted senders, the [4·n + 16]
    default round limit — and none of its machinery: no frontier set, no
    arena, no scratch buffers, no telemetry. Slower and allocation-heavy
    by design. *)

type 'out result = {
  outputs : 'out array;
  rounds : int array;  (** rounds each node ran before halting *)
  max_rounds : int;
}

val run_boxed :
  ?limit:int ->
  Repro_local.Instance.t ->
  ('state, 'msg, 'out) Repro_local.Message_passing.algorithm ->
  'out result
(** Execute until all nodes halt. @raise Failure if the [limit] is
    exceeded. When {!Repro_obs.Provenance} is armed it tracks and
    submits influence sets (engine tag ["boxed"]) with the same
    send-copies/receive-unions rule as the engine, so a certificate of a
    boxed run must equal the engine's modulo the tag. *)

val node_verdicts :
  ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) Repro_lcl.Ne_lcl.t ->
  Repro_graph.Multigraph.t ->
  input:('vi, 'ei, 'bi) Repro_lcl.Labeling.t ->
  output:('vo, 'eo, 'bo) Repro_lcl.Labeling.t ->
  bool array
(** The node-centric radius-1 reading of an ne-LCL (Cruciani et al.,
    {e It does not matter how you define locally checkable labelings}):
    node [v] accepts iff [C_N] holds at [v] and [C_E] holds on every
    port of [v], evaluated with [v] as side [u]; a self-loop is so
    checked in both orientations. Each node's views are windows built
    from its own {!Repro_local.Ball.gather} at radius 1, through the ball's
    numbering (center ports, [to_global], the ascending-edge-id order of
    the induced edges), not through the CSR mates the sweep reads.
    Sequential and O(n·(n + m)): for small graphs only. *)
