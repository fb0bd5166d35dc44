(** (d, Δ)-gadget families, packaged per Definition 2: the data the
    padding transformer of Theorem 1 consumes.

    A family provides valid gadgets of any requested size (with ports
    1..Δ and pairwise port distances Θ(d(size))), its validity predicate,
    its node-edge-checkable LCL Ψ_G, and the prover V that solves Ψ_G in
    O(d(n)) rounds. Both concrete families share the label vocabulary of
    {!Labels} and the Ψ_G output types of {!Ne_psi}, so the padded problem
    Π' is family-generic. *)

type t = {
  name : string;
  delta : int;
  d_name : string;  (** "Θ(log n)" or "Θ(n)" — the family's depth class *)
  make : target:int -> Labels.t;
      (** a valid gadget with at least [target] nodes *)
  is_valid : Labels.t -> bool;
  ne_problem : Ne_psi.problem_t;
  edge_ok : Ne_psi.edge_constraint;
      (** [ne_problem]'s edge constraint on labels alone: at every edge
          it equals [ne_problem.check_edge] on that edge's window. Π'
          checks its gadget edges through it. *)
  prove : n:int -> Labels.t -> Ne_psi.solution * Repro_local.Meter.t;
  depth : Labels.t -> int;  (** port-to-port distance scale, for stats *)
}

val log_family : delta:int -> t
(** The Section-4 family: d(n) = Θ(log n). *)

val linear_family : delta:int -> t
(** The star-of-paths family of {!Linear_gadget}: d(n) = Θ(n). *)
