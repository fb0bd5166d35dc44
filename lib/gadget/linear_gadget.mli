(** A second gadget family: the (linear, Δ)-family of star-of-paths.

    Theorem 1 is black-box in the gadget family — "for each ne-LCL Π and
    each (d, Δ)-gadget family G". The Section-4 family has d(n) = Θ(log n);
    this module provides a family with d(n) = Θ(n): a gadget is a center
    with Δ legs, each leg a labeled path whose far end is the port. Padding
    with it multiplies complexities by Θ(n) instead of Θ(log n) and lands
    the padded problems in the polynomial region of the Figure-1 landscape
    (the "new classes of distributed time complexities" the paper cites).

    Labels reuse the vocabulary of {!Labels}: a leg node's half toward the
    center is [Parent], away from it [RChild]; the leg head carries [Up]
    to the [Center], whose halves are [Down_i]; the far end of leg i is
    [Port_i] with kind [Index i]. Validity is locally checkable by the
    analogous rules (mate pairing, port shape, flags, distance-2 colors);
    a cycle posing as a leg is locally consistent, so — exactly like the
    paper's family — the error side of Ψ is what convicts it: an all-
    pointer labeling exists on such components and never on valid gadgets.

    The prover needs O(n) rounds (it must see the whole component), which
    is what Definition 2 allows for d(n) = n. The node-edge encoding
    reuses the label types of {!Ne_psi} — pointers, witnesses, bad-edge
    marks and color claims; the 2c/2d chains are never needed because legs
    have no squares. *)

val build : delta:int -> leg:int -> Labels.t
(** A valid gadget with legs of [leg >= 1] nodes each
    ([delta·leg + 1] nodes total). *)

val size : delta:int -> leg:int -> int
val leg_for : delta:int -> target:int -> int
(** Smallest leg length whose gadget size reaches [target]. *)

type violation = { node : int; rule : string }

val violations : delta:int -> Labels.t -> violation list
val is_valid : delta:int -> Labels.t -> bool
val erring_nodes : delta:int -> Labels.t -> bool array

val problem : delta:int -> Ne_psi.problem_t
(** The Ψ_G ne-LCL of this family (same label types as the log family's). *)

val edge_ok : Ne_psi.edge_constraint
(** This family's Ψ_G edge constraint; [(problem ~delta).check_edge]
    applies it to a window's labels. *)

val prove :
  delta:int -> n:int -> Labels.t -> Ne_psi.solution * Repro_local.Meter.t
(** All-GadOk on valid gadgets; an error labeling otherwise. *)
