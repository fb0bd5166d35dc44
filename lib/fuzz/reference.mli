(** The reference round engine the fuzz oracles and tests hold
    {!Repro_local.Frontier.run} against.

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
