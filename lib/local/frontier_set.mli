(** The frontier representation for frontier-driven rounds: a node set
    kept simultaneously as a flat int array (sparse view, insertion
    order) and a packed bitmap (dense view), so the engine can switch
    representation per round on a density threshold — Ligra-style push
    when sparse, pull when dense — with no conversion pass.

    {2 Mutation discipline}

    This is one half of the frontier contract (DESIGN.md §13): [add],
    [remove_if], [clear] and [fill_all] may only be called from the
    dispatching domain while no pool loop is in flight. Parallel
    bodies only {e read} a set ({!member}, {!mem}, {!fold_word}) and
    write index-owned output slots; the next frontier is built
    sequentially from those outputs in a deterministic order. Hence
    member order — and everything derived from it — depends only on
    the instance, never on the pool size. *)

type t

val create : ?dense_threshold:int -> int -> t
(** [create n] makes an empty set over nodes [0, n). [dense_threshold]
    is the cardinality at which {!is_dense} flips (default [n/16], at
    least 1): [0] forces the dense view always, [n + 1] forces the
    sparse view always — the two forced modes the switch tests pin. *)

val cardinal : t -> int
val mem : t -> int -> bool

val member : t -> int -> int
(** [member t k]: the [k]-th member in insertion order,
    [0 <= k < cardinal t]. The sparse (push) iteration index. *)

val is_dense : t -> bool
(** [cardinal t >= dense_threshold]: the per-round switch rule. *)

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

val word_count : t -> int
(** number of bitmap words; the dense iteration's loop bound *)

val fold_word : t -> int -> int -> (int -> int -> int) -> int
(** [fold_word t w init f] folds [f] over the members inside bitmap
    word [w] in ascending node order. Read-only, so safe from parallel
    bodies: the nodes of one word belong to exactly one loop index. *)

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
