(** The local-checkability constraints of the gadget family
    (paper §4.2 constraints 1a–3h and §4.3 center constraints).

    Each constraint is evaluated in the constant-radius neighborhood of a
    node; a labeled graph satisfies them all iff it is a valid gadget
    (Lemmas 7 and 8). [delta] is the Δ of the family — the number of
    sub-gadgets hanging off the center. *)

type violation = {
  node : int;
  rule : string;  (** "1a" … "3h", "c1", "c2a" … "c2d" *)
}

val pp_violation : Format.formatter -> violation -> unit

val node_violations : delta:int -> Labels.t -> int -> violation list
(** All constraint violations visible from one node, in rule order (a
    rule checked per half-edge is reported once per offending half). *)

val violations : delta:int -> Labels.t -> violation list
(** {!node_violations} of every node, in node order. *)

val is_valid : delta:int -> Labels.t -> bool
(** No node is bad; stops at the first violation. *)

val node_bad : delta:int -> Labels.t -> int -> bool
(** [node_bad ~delta t u] iff [node_violations ~delta t u <> []]. Both
    run the same per-node scan; this one stops at the first violation
    and allocates nothing, which is what the hot prover path needs. *)

val erring_nodes : delta:int -> Labels.t -> bool array
(** [true] for every node with at least one violation — the nodes the
    prover {!Verifier} must label [Error]. *)
