(** One audit entry per built-in solver: the instance family it is
    benchmarked on, the round bound it declares, and a runner that
    produces a locality certificate ({!Repro_obs.Provenance.certificate})
    for one concrete instance.

    This is the registry behind [repro audit]: the metered solvers
    (sinkless orientation, coloring, MIS, matching) are audited by
    replaying their measured per-node radii as an engine flood
    ({!Repro_local.Audit.run_flood}); the distributed checker replays
    its declared one round the same way. The gadget verifier needs the
    gadget layer and is registered by the serve layer, not here
    ([repro_problems] does not depend on [repro_gadget]). *)

type entry = {
  a_name : string;  (** stable CLI name, e.g. ["so-det"] *)
  a_doc : string;   (** instance family + declared bound, one line *)
  a_run : seed:int -> n:int -> Repro_obs.Provenance.certificate;
      (** Build an instance of ~[n] nodes, run the solver, certify. *)
}

val all : entry list
(** so-det, so-rand, so-wave, coloring, mis, matching, dcheck. *)

val names : string list

val find : string -> entry option
