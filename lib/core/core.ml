(** Umbrella module: the public API of the reproduction.

    - {!Graph}: port-numbered multigraphs, generators, traversals.
    - {!Local}: the LOCAL-model simulator (ids, randomness, balls, meters,
      the frontier round engine).
    - {!Lcl}: the node-edge-checkable LCL formalism.
    - {!Problems}: sinkless orientation, coloring, MIS — the landscape.
    - {!Gadget}: the (log, Δ)-gadget family of Section 4.
    - {!Padding}: padded LCLs (Section 3) and the Π^i hierarchy (Section 5).
    - {!Obs}: round-level telemetry — counters, histograms, JSONL traces.
    - {!Fuzz}: property-based fuzzing + differential oracles ([repro fuzz]).
    - {!Problem}: the problem registry — every CLI/serve problem name, its
      instance family, solvers and declared Figure-1 class. *)

module Graph = Repro_graph
module Local = Repro_local
module Lcl = Repro_lcl
module Problems = Repro_problems
module Gadget = Repro_gadget
module Padding = Repro_padding
module Obs = Repro_obs
module Fuzz = Repro_fuzz

(** [pi i] is the LCL Π^i of Theorem 11: deterministic complexity
    [Θ(log^i n)], randomized [Θ(log^{i-1} n · log log n)]. *)
let pi = Padding.Hierarchy.level

(** Solve a problem level on a fresh hard instance and report measured
    round complexities (see {!Padding.Spec.run_hard}). *)
let run_hard = Padding.Spec.run_hard

module Stats = Repro_stats
module Problem = Repro_registry.Problem
