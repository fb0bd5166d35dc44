(** The differential oracles: each takes a generated case and
    cross-checks several independent implementations, failing on any
    disagreement. The oracle matrix (DESIGN.md §11):

    - solver output × the {!Repro_lcl.Ne_lcl.sweep} checks × the
      node-centric reference checker ({!Reference.node_verdicts}), per
      landscape problem;
    - sequential (pool size 1) × parallel (2, 4 domains) engine runs;
    - the frontier engine × the boxed reference engine
      ({!Reference.run_boxed});
    - gadget {!Repro_gadget.Check} × {!Repro_gadget.Verifier} +
      {!Repro_gadget.Psi} (a corrupted gadget must be rejected by both,
      with the error proof localizing the planted fault) ×
      {!Repro_gadget.Ne_psi};
    - padded Π' instances solved and validated through
      {!Repro_padding.Spec.run_hard};
    - locality provenance certificates on fuzzed runs
      ({!Repro_local.Audit}, {!Repro_lcl.Distributed_check.audited_run}).

    All oracles are deterministic functions of the case (instances carry
    explicit seeds), which is what makes shrinking and replay sound. *)

val planted_bug : string option ref
(** Test-only fault injection: when set to a known bug name, one clause
    of the sweep's {e copy} of a problem is dropped, so the differential harness
    must catch the disagreement (the acceptance gate for the whole
    subsystem — see [test/test_fuzz.ml] and DESIGN.md §11). Initialized
    from the [REPRO_FUZZ_BREAK] environment variable. Never set outside
    tests. *)

val known_bugs : string list
(** Currently: ["so-edge-clause"] — the copy of the sinkless
    orientation problem the [dcheck] oracle sweeps with accepts any edge
    labeling; the reference keeps the real one. *)

(** {1 Oracles} — [Error] carries the disagreement description. *)

type verdict = (unit, string) result

val so_solvers : Gen_graph.recipe * int -> verdict
(** Both SO solvers on an arbitrary multigraph: output valid by the
    checker, zero sinks, and the node-centric reference accepts at
    every node. *)

val colorful : Gen_graph.recipe * int -> verdict
(** Coloring, MIS (coloring sweep and Luby) and matching on a simple
    graph: each output valid by its checker and accepted at every node
    by the node-centric reference. *)

val two_coloring : Gen_graph.recipe * int -> verdict
(** 2-coloring on a bipartite recipe: valid + reference agreement. *)

val dcheck : Gen_graph.recipe * int * int option -> verdict
(** The sweep-vs-reference differential: solve SO, optionally corrupt
    one half-edge output (the [int option] picks the half), then demand
    that the per-node accepts of {!Repro_lcl.Distributed_check.run}
    (derived from {!Repro_lcl.Ne_lcl.sweep}) equal the verdicts of
    {!Reference.node_verdicts} — and that the verdict is "reject"
    exactly when a corruption was actually applied. The same per-node
    comparison then runs on coloring, MIS and matching labelings of the
    same multigraph drawn from the case seed ({!Gen_labeling}). This is
    the oracle that catches the [so-edge-clause] planted bug, and a
    sweep that misreads a self-loop. *)

val engines : Gen_graph.recipe * int -> verdict
(** Pool-size differential: SO (det) outputs, meters and a flood-gather
    must be identical at 1, 2 and 4 domains. *)

val engine_vs_boxed : Gen_graph.recipe * int -> verdict
(** Engine differential: {!Repro_local.Frontier.run} vs
    {!Reference.run_boxed} on three algorithms (boxed int-list flood,
    float sum, radius-3 ball gather) — outputs, per-node round counts
    and [max_rounds] must be byte-identical at 1, 2 and 4 domains. The
    gathered balls must equal
    {!Repro_local.Message_passing.flood_gather}'s knowledge, and an
    audited flood must certify identically on both engines modulo the
    engine tag. *)

val gadget : Gen_gadget.case -> verdict
(** Check × Verifier × Psi × Ne_psi as described above. *)

val padding : int * int * int -> verdict
(** [(level, target, seed)]: Π^level on a fresh hard instance — both
    solvers' outputs must validate. *)

val provenance : Gen_graph.regular * int -> verdict
(** Certificates: replay the SO-det meter as an audited flood, and
    audit the distributed checker's one round; both must certify. *)
