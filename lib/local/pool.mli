(** A work-sharing domain pool: the multicore execution layer of the
    simulator.

    The LOCAL model is embarrassingly parallel by definition — in every
    round each node acts on its own state and its own mailbox — so the
    engine's hot loops are all "for every node/edge, do independent
    work". This module turns those loops into chunked parallel loops over
    a small set of worker domains (raw [Domain.spawn] + [Atomic]; no
    external dependencies).

    {2 Determinism contract}

    Parallel execution must be bit-identical to sequential execution.
    The pool guarantees: every index in [0, n) is executed exactly once,
    and no index is executed twice. The {e caller} guarantees: the body
    for index [i] writes only to locations owned by [i] (its own array
    slots), and reads only locations that no other index writes during
    the same loop. Under that discipline the schedule cannot be observed,
    so any domain count — including 1 — produces the same result, and
    [test/test_parallel.ml] asserts exactly this for every solver.

    {2 Dispatch rule (DESIGN §17)}

    Handing a loop to the workers is not free: job setup, the atomic
    claim traffic, and a park/wake cycle per dispatch. A loop is
    therefore dispatched only when all three hold:
    - the pool has more than one member ([size () > 1]);
    - the pool is not oversubscribed
      ([size () <= Domain.recommended_domain_count ()]) — on a host with
      fewer cores than members no loop can win, so nothing dispatches;
    - its estimated sequential work, [n] times a per-callsite [?grain]
      hint in ns/index ({!default_grain} when absent), reaches a fixed
      cutoff of a few microseconds.

    Everything else runs inline on the calling domain. Chunk layouts
    come from the same grain hint: each chunk aims at a fixed work
    target, clamped between 1 and 16 chunks per domain. The rule and
    the hints move {e schedules} only; outputs are bit-identical across
    them by the determinism contract.

    {2 Configuration}

    The pool size is read from the [REPRO_DOMAINS] environment variable
    (default: [Domain.recommended_domain_count ()]). Size 1 runs every
    loop on the calling domain with no pool involvement at all.

    [REPRO_POOL_CUTOFF=always] turns on the test-only force switch
    ({!set_force_dispatch}): every loop of at least 16 indices
    dispatches whenever [size () > 1], regardless of the core count and
    the work estimate, and the calling domain runs none of its chunks,
    so the worker domains run every chunk even on a one-core host. Any
    other value leaves the rule above in force.

    Loops must be issued from one domain at a time (the engine's main
    domain); a [parallel_for] issued from inside a running loop body
    degrades safely to a sequential loop rather than deadlocking.

    {2 Telemetry}

    With the {!Repro_obs.Registry} enabled, the pool counts dispatched
    jobs ([local.pool.jobs]), inline loops ([.seq_loops], of which
    [.cutoff_inline] had a pool available but stayed inline), chunks
    and per-chunk wall time ([.chunks], [.chunk_ns], [.chunk_ns.hist]),
    dispatched indices ([.par_idx]) and whole-job dispatch wall time
    ([.dispatch_ns]). Whether a job records any of this is decided once
    at dispatch time and stored in the job, so disarmed chunk execution
    does zero registry work. Chunk counts and times depend on the pool
    size and schedule, so they are timing data only — excluded from the
    determinism contract and from {!Repro_obs.Trace}'s deterministic
    projection. *)

val size : unit -> int
(** Configured domain count: [set_size] override if any, else
    [REPRO_DOMAINS], else [Domain.recommended_domain_count ()]. *)

val worker_index : unit -> int
(** Index of the calling domain within the pool: 0 for the dispatching
    domain, [1 .. size () - 1] for workers. Always
    [< worker_slots ()]. Engines use it to pick a per-domain scratch
    buffer out of a [worker_slots ()]-sized arena — each domain only
    touches its own slot, so no synchronisation is needed and the
    determinism contract is untouched (scratch contents never outlive
    one loop body). *)

val worker_slots : unit -> int
(** Upper bound (exclusive) on {!worker_index} until the next
    [set_size]: the number of scratch slots an engine must allocate. *)

val padded : 'a -> 'a
(** [padded r] is a copy of the record [r] followed by one cache line of
    unused words. Per-slot scratch that a loop body writes at every
    index is made through it: two padded records then never share a
    cache line, so one domain's writes do not keep invalidating the line
    another domain is reading (false sharing). The copy's fields are
    [r]'s; mutating one does not touch the other. Works on any block
    with scannable fields (records, tuples, non-constant variants).
    @raise Invalid_argument on immediates, closures, lazy values,
    objects, floats, strings and float records. *)

val set_size : int -> unit
(** Override the pool size at runtime (used by the bench harness to
    measure sequential vs. parallel in one process, and by the
    determinism tests). Shuts down any running workers; the next loop
    lazily respawns them at the new size. [set_size 1] is a full
    fallback to sequential execution. *)

val set_force_dispatch : bool -> unit
(** Test-only force switch (initially on iff [REPRO_POOL_CUTOFF=always]):
    dispatch every loop of at least 16 indices whenever [size () > 1],
    and run all its chunks on worker domains. Determinism suites turn it
    on so worker domains are exercised regardless of the host's core
    count; it moves schedules only, never results. *)

val default_grain : int
(** Estimated ns per index assumed for call sites without a [?grain]
    hint. *)

val parallel_for : ?grain:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f i] for every [i] in [0, n), split into
    chunks shared over the worker domains via an atomic chunk counter.
    [?grain] estimates ns per index for the dispatch rule and the chunk
    layout. Each chunk runs its indices in ascending order. The first
    exception raised by any body is re-raised on the calling domain
    after the loop drains. *)

val parallel_range : ?grain:int -> n:int -> (int -> int -> unit) -> unit
(** [parallel_range ~n body] runs [body lo hi] on disjoint nonempty
    ranges [\[lo, hi)] that together cover [\[0, n)] exactly once: one
    call per chunk of a dispatched loop, and one call [body 0 n] when
    the loop runs inline (none when [n <= 0]). Dispatch rule, [?grain]
    and chunk layout are {!parallel_for}'s, which is defined over it.
    A body runs on one domain from start to end, so it can look up its
    per-slot scratch ({!worker_index}) once per range instead of once
    per index. Which ranges a loop gets depends on the pool size and
    the schedule; under the determinism contract the result may not. *)

val parallel_sum : ?grain:int -> n:int -> (int -> int -> int) -> int
(** [parallel_sum ~n body] runs [body lo hi] on {!parallel_range}'s
    ranges over [\[0, n)] and returns the sum of the results: one
    partial per chunk, added up in chunk order; an inline loop is the
    one call [body 0 n]. Returns 0 without calling [body] when
    [n <= 0]. The total is layout-independent when [body lo hi] is a
    sum over its indices. *)

val tabulate : ?grain:int -> int -> (int -> 'a) -> 'a array
(** [tabulate n f] is [Array.init n f] with the slots filled in
    parallel. [f 0] is evaluated first on the calling domain (to seed
    the array); [f] must therefore be safe to call out of order. *)

val shutdown : unit -> unit
(** Join all worker domains. Safe to call at any quiescent point; the
    next parallel loop respawns the pool. Registered with [at_exit]. *)
