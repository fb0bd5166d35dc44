(** The LOCAL model's round-by-round algorithm description (paper §2,
    first paragraph), complementing the gather-based view of {!Ball},
    plus the canonical flooding building block.

    An algorithm is given by a per-node state machine. In every round each
    node emits one message per port, the message sent into port [p] of
    [v] arrives at the far end of that edge, tagged with the receiving
    port, and each node updates its state. A node may halt with an
    output. Messages can be arbitrarily large (they carry a user type),
    matching the unbounded-bandwidth LOCAL model. {!Frontier.run}
    executes these algorithms; its header documents the mailbox and
    halted-sender contracts.

    {2 Telemetry}

    When the {!Repro_obs.Registry} is enabled, [flood_gather] maintains
    the [local.flood.*] counters (rounds, messages, payload bytes), and
    while {!Repro_obs.Span} is armed each round's [flood.round] span
    carries the round's statistics as kvs, with [active] = n — the
    schema is documented in DESIGN.md §9. Disabled, the instrumentation
    is a single branch per round. [flood_gather] carries no provenance:
    audited floods run on {!Frontier.run} through {!Audit.run_flood}
    (DESIGN.md §10). *)

val payload_bytes : 'a -> int
(** The transmitted size of a payload: its reachable heap words, as
    bytes. Deterministic for structurally equal values, so safe to
    record under the seq-vs-par telemetry contract. Both engines charge
    their [payload_bytes] telemetry with it. *)

type ('state, 'msg, 'out) algorithm = {
  init : Instance.t -> int -> 'state;
      (** [init inst v]: the initial state; a node knows [n_promise], its
          own identifier, degree, and private randomness. *)
  send : 'state -> round:int -> port:int -> 'msg;
      (** the message for each port this round *)
  receive : 'state -> round:int -> 'msg array -> ('state, 'out) Either.t;
      (** [receive st ~round msgs]: [msgs.(p)] arrived on port [p].
          Return [Left st'] to continue, [Right out] to halt.
          [msgs] is a reused scratch buffer — do not retain it past the
          call (see {!Frontier}). *)
}

val flood_gather :
  Instance.t ->
  radius:int ->
  (int -> 'a) ->
  'a list array array
(** A canonical building block: every node floods a payload [radius]
    rounds; returns, per node, the payloads received per round (distance
    class). Used to realize gather-based algorithms over the engine and to
    cross-check {!Ball}. [result.(v).(d)] holds payloads of nodes at
    distance exactly [d+1 <= radius] (with multiplicity along paths
    collapsed to set semantics by payload equality: a payload is listed
    at the first distance any node carrying it is seen). Each per-round
    list is in ascending order of the payload's first carrier node, so
    it depends only on the instance, never on the pool size. *)
