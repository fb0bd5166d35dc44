(** The locality provenance auditor: turn "this algorithm ran in T
    rounds" into a checkable certificate "every output was derived from
    within radius T" (the defining LOCAL-model invariant, paper §2).

    This module is the graph-aware wiring around
    {!Repro_obs.Provenance}: it arms audit mode, runs an algorithm on
    the {!Frontier} engine (which tracks per-message influence sets),
    and certifies the submitted influence against per-node
    declared round bounds using BFS distances — i.e. it checks
    [influence(v) ⊆ Ball(v, T_v)] for every node, exactly the
    containment {!Ball.gather} realizes constructively.

    Two entry points:

    - {!certify_run} audits an arbitrary engine run.
    - {!run_flood} executes a solver's declared bounds as an actual
      engine run: every node floods its identity and halts after its
      declared number of rounds, so the engine-observed influence must
      stay within the declared ball. This is how every solver
      (sinkless orientation, coloring, MIS, matching, the gadget
      verifier, the one-round distributed checker) is audited — a
      LOCAL algorithm with round bound [T_v] is, by the §2
      equivalence, exactly a [T_v]-round full-information flood
      followed by a local decision.

    Certificates are deterministic for every pool size (the influence
    tracking obeys the engine's per-slot ownership discipline), which
    the parallel test suite asserts at 1/2/4 domains. *)

val certify_run :
  ?label:string ->
  Instance.t ->
  declared:(int -> int) ->
  (unit -> 'a) ->
  'a * Repro_obs.Provenance.certificate
(** [certify_run inst ~declared f] arms audit mode, runs [f ()] (which
    must execute exactly one engine run on [inst] — the last engine run
    wins if there are several), and certifies the submitted influence
    sets against [declared v] using BFS distances in [inst]'s graph.
    If [f] raises, the audit is aborted and the exception re-raised.
    @raise Failure if [f] triggered no engine run. *)

val flood_algorithm :
  actual:(int -> int) -> (int, int, int) Message_passing.algorithm
(** The canonical full-information flood: state and messages are node
    identities (the influence sets do the real information accounting
    at the engine level) and node [v] halts after [actual v] receive
    phases — with exactly its radius-[actual v] ball delivered. Exposed
    so tests and benches can run the same flood on the engine directly
    (e.g. to pin the frontier engine's per-round live-set sizes on a
    golden instance). *)

val run_flood :
  ?label:string ->
  Instance.t ->
  declared:(int -> int) ->
  Repro_obs.Provenance.certificate
(** [run_flood inst ~declared] runs the canonical full-information
    algorithm under audit: node [v] sends its identity every round and
    halts after [max 1 (declared v)] rounds. The resulting certificate
    checks that the engine delivered no information from outside any
    node's declared ball. *)

val non_local_flood :
  ?label:string ->
  Instance.t ->
  declared:(int -> int) ->
  overshoot:int ->
  Repro_obs.Provenance.certificate
(** A deliberately non-local run, for tests and demos: nodes keep
    listening [overshoot] rounds longer than they declare, so on any
    graph with nodes beyond the declared radius the certificate fails,
    naming the offending node, the leaked source and its distance. *)
