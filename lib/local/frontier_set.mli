(** The frontier representation for frontier-driven rounds: a node set
    kept as a flat int array of its members in insertion order, with a
    stamp array for O(1) membership. Every iteration — the engine's
    rounds, {!iter}, {!expand} — walks the member array.

    {2 Mutation discipline}

    This is one half of the frontier contract (DESIGN.md §13): [add],
    [remove_if], [clear] and [fill_all] may only be called from the
    dispatching domain while no pool loop is in flight. Parallel
    bodies only {e read} a set ({!member}, {!mem}) and write
    index-owned output slots; the next frontier is built sequentially
    from those outputs in a deterministic order. Hence
    member order — and everything derived from it — depends only on
    the instance, never on the pool size. *)

type t

val create : int -> t
(** [create n] makes an empty set over nodes [0, n). *)

val cardinal : t -> int
val mem : t -> int -> bool

val member : t -> int -> int
(** [member t k]: the [k]-th member in insertion order,
    [0 <= k < cardinal t]. The engine's per-round iteration index. *)

val clear : t -> unit
val add : t -> int -> unit
(** idempotent; appends to the member order on first insertion *)

val fill_all : t -> unit
(** the full frontier [0, n) in ascending order (round 0) *)

val iter : t -> (int -> unit) -> unit
(** sequential, insertion order, dispatching domain *)

val remove_if : t -> (int -> bool) -> unit
(** drop members satisfying the predicate, preserving the order of the
    survivors (the engine's post-receive halted filter) *)

type scratch
(** reusable buffers for {!expand}: degree prefix sums plus a flat
    candidate array, grown geometrically and never shrunk *)

val scratch : unit -> scratch

val expand : g:Repro_graph.Multigraph.t -> src:t -> dst:t -> scratch -> unit
(** [expand ~g ~src ~dst s] replaces [dst] with the far endpoints of all
    half-edges leaving [src], deduplicated in first-discovery order
    (source members in order, each member's ports in order). The
    candidate fill runs on the pool with per-index slice ownership;
    prefix sums and dedup run on the dispatching domain, so the resulting
    member order is pool-size independent. *)
