(** The problem registry: the one list that binds every problem name of
    [repro solve], [repro audit], [repro landscape], the daemon's [solve],
    [check] and [audit] ops, experiment F1 and [examples/landscape.ml] to
    its instance family, its solvers and the round class Figure 1
    declares for each.

    An entry is one problem: an instance family that is a function of
    [(seed, n)] only, and its solvers. A solver has a name, a declared
    class ({!Repro_stats.Fit.model}) and whichever runners it has: a
    canonical dump, an audit runner, a Figure-1 row, and — for the
    sinkless-orientation solvers — the raw solve the daemon runs on its
    cached instance. *)

type solved = {
  rounds : int;  (** engine rounds charged (meter / verdict) *)
  valid : bool;  (** the centralized checker's verdict on the output *)
  output : string;
      (** canonical bytes: a header line, then the labeling; identical at
          every pool size and dispatch policy *)
}

val dump_names : string list
(** [repro solve]: coloring, mis, luby-mis, dcheck, flood. *)

val check_names : string list
(** The daemon's [check]: so-det, so-rand, so-wave. *)

val solve_names : string list
(** The daemon's [solve]: {!check_names} then {!dump_names}. *)

val audit_names : string list
(** so-det, so-rand, so-wave, coloring, mis, matching, dcheck, verifier:
    the [repro audit all] order. *)

val unknown : string -> string list -> string
(** [unknown name known]: the error text for a name outside [known]. *)

val dump : string -> (seed:int -> n:int -> solved) option
(** Draw the family at [(seed, n)], solve, render the canonical dump. *)

val audit :
  string -> (seed:int -> n:int -> Repro_obs.Provenance.certificate) option
(** Draw the family at [(seed, n)] and certify the solver's locality. The
    verifier's family is the smallest Δ = 3 gadget with at least [n]
    nodes, whatever the seed. *)

val sinkless :
  string ->
  ((seed:int -> n:int -> Repro_graph.Multigraph.t)
  * (seed:int ->
    Repro_graph.Multigraph.t ->
    Repro_local.Instance.t
    * (Repro_problems.Sinkless_orientation.output * Repro_local.Meter.t)))
  option
(** A sinkless-orientation solver, split where its family draws the
    graph so a caller can cache drawn graphs: the first half draws the
    graph at [(seed, n)], the second builds the family's instance on it
    and solves. *)

type row = {
  name : string;
  declared : Repro_stats.Fit.model;  (** its class in Figure 1 *)
  cells : int list;  (** measured rounds, one per size *)
}

val landscape : int list -> row list
(** [landscape sizes]: the Figure-1 rows — trivial, coloring, mis,
    matching, so-rand, so-det, pi2-rand, pi2-det, 2-coloring — ordered by
    declared class in {!Repro_stats.Fit.all_models} order. Every cell
    draws its problem's family at its own [(seed 2, n)], so no cell
    depends on the other sizes; the rows of one problem read one draw
    per [n], so both Π² rows come from one
    {!Repro_padding.Spec.run_hard}. *)
