(** Locality meters: the measured round complexity of a run.

    Every solver in this repository, when it fixes the output of node [v],
    charges the meter with the radius of information that output depended
    on. The LOCAL round complexity of the run is the maximum charge
    (paper §2: T rounds ⟺ radius-T views). *)

type t

val create : int -> t
(** One counter per node, all zero. *)

val of_radii : int array -> t
(** [of_radii r] is the meter with radius [r.(v)] at node [v], for a
    solver that keeps its charges in an array of its own. The meter takes
    [r] over: later charges write into it. *)

val charge : t -> int -> int -> unit
(** [charge m v r] records that node [v] used information up to radius [r];
    keeps the maximum over all charges for [v]. *)

val charge_all : t -> int -> unit

val radius : t -> int -> int

val declared : t -> int -> int
(** [radius] floored at 1 — the per-node round bound a metered run
    declares to the provenance auditor ({!Audit}): the engine always
    delivers the radius-1 neighborhood before a node can first halt, so
    an engine-run certificate can never be tighter than one round. *)

val max_radius : t -> int
val mean_radius : t -> float
val histogram : t -> (int * int) list
(** [(radius, how many nodes)] pairs, ascending. *)
