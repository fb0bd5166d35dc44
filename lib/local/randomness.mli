(** Per-node private random bits for randomized LOCAL algorithms.

    In the LOCAL model each node holds an infinite private random string;
    when a node gathers a radius-[r] ball it also learns the random strings
    of the ball's nodes. We realize this with a counter-mode hash
    (splitmix64) of [(seed, node, index)]: every node's string is
    independent of the graph and reproducible from the experiment seed. *)

type t

val create : seed:int -> t

val bits64 : t -> node:int -> idx:int -> int64
(** The [idx]-th 64-bit word of [node]'s random string. *)

val bit : t -> node:int -> idx:int -> bool
val int : t -> node:int -> idx:int -> bound:int -> int
(** Uniform in [0, bound). Requires [bound > 0]. *)
