(** The round engine: executes any {!Message_passing.algorithm}
    synchronously, round by round, over the live (un-halted) node set,
    so a round costs O(frontier nodes + frontier edges) instead of
    O(n + m). Round 0 starts with the full node set, and the set shrinks
    as nodes halt; the run ends when every node has halted or the round
    limit is reached. The engine records the number of rounds each node
    ran before halting — by the equivalence of §2 this is the same
    complexity measure as {!Meter} tracks for gather-based solvers.

    {2 Halted-sender semantics}

    A node that has halted no longer computes messages: its neighbours
    keep receiving the {e last} message it sent on each port
    (last-message-repeated). Operationally the engine keeps one mailbox
    slot per half-edge for the whole run and a halted sender's final
    messages simply stay in place. This is the natural LOCAL-model
    reading — a halted node's state is frozen, so a state-determined
    message would be frozen too — and it makes [send] a dead call after
    halting. The one observable difference from recomputing [send] on a
    frozen state: a [send] that depends on [~round] after halting is
    never observed. Algorithms should not do that.

    {2 Arena mailboxes}

    The mailbox is a flat ['msg array] with one slot per half-edge for
    the whole run, indexed by CSR position: node [v]'s inbox is the
    contiguous slice of its ports, in port order, and each slot holds
    the most recent message sent into that half. A per-run array maps
    each position to the inbox slot of its mate half, so the send phase
    scatters through it and the receive phase reads its own slice in
    order. Round 0 writes every slot (the frontier is full), which the
    engine checks once, as round 0's scanned half-edge count equalling
    [2m]; halted senders' messages stay in place, so every slot holds a
    real message from then on. The [msgs] array passed to
    [receive] is a {e per-domain scratch buffer}: it is valid only for
    the duration of the call and is reused for other nodes afterwards.
    [receive] must not retain it (copy it if needed); every
    implementation in this repo consumes it immediately. DESIGN.md §12
    documents the layout and ownership rules.

    {2 Parallel execution, telemetry, provenance}

    Both phases of a round run as {!Pool} loops over the live set's
    {!Frontier_set} member array, which is in ascending node id (round
    0 fills it in order and halted nodes are filtered out in order),
    and every write is index-owned, so results are bit-identical for
    every pool size. When the {!Repro_obs.Registry} is enabled the engine
    maintains the [local.frontier.*] counters, and while {!Repro_obs.Span}
    is armed each round's [frontier.round] span carries the round's
    statistics as kvs (DESIGN.md §9) — among them the live-set size
    [active] and the scanned half-edges [edges], the evidence that
    round cost tracks the frontier, not [n]. When
    {!Repro_obs.Provenance} is armed it tracks, per node and per
    in-flight message, the set of origin nodes whose initial state has
    reached it, and at halt submits the per-node sets and active-round
    counts for radius certification (DESIGN.md §10); disarmed, the cost
    is one boolean load per run. DESIGN.md §13 documents the frontier
    contract. *)

type 'out result = {
  outputs : 'out array;
  rounds : int array;  (** rounds each node ran before halting *)
  max_rounds : int;
}

val run :
  ?limit:int ->
  Instance.t ->
  ('state, 'msg, 'out) Message_passing.algorithm ->
  'out result
(** Execute until all nodes halt. @raise Failure if the [limit]
    (default [4·n + 16] rounds) is exceeded. *)
