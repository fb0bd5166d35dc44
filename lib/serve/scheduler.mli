(** The request scheduler: a bounded FIFO admission queue drained by ONE
    executor thread.

    Serializing execution is the point, not a limitation: every request
    runs its engines over the one process-wide domain pool
    ({!Repro_local.Pool}), so running two requests' engine phases
    concurrently would only make them queue on the pool's single job
    slot — and their counters would mix in the one metric population
    ({!Repro_obs.Registry.default}). One executor gives per-request
    telemetry isolation by construction while the domain pool still
    parallelizes each request internally. Connection IO stays
    concurrent: one systhread per client blocks on {!wait} while the
    executor works.

    Admission is FIFO-fair and bounded: when [capacity] requests are
    already waiting, {!submit} refuses immediately — the server turns
    that into a structured [busy] reply, the protocol's explicit
    backpressure, instead of an ever-growing queue. *)

type t

type ticket
(** A claim on one submitted job's reply. *)

val create : ?capacity:int -> unit -> t
(** Start the executor thread; at most [capacity] (default 64) jobs may
    be queued ahead of execution. *)

val submit :
  t ->
  (queue_ns:int -> Repro_obs.Json.t) ->
  [ `Accepted of ticket | `Busy | `Shutdown ]
(** Enqueue a job. [`Busy] when the queue is full, [`Shutdown] after
    {!shutdown} began. A job that raises resolves its ticket to an
    [internal] error reply — exceptions never kill the executor. The
    executor calls the job with [queue_ns], its measured
    admission-to-start latency (monotonic clock, clamped at 0). *)

val wait : ticket -> Repro_obs.Json.t
(** Block until the job has run and return its reply. *)

val depth : t -> int
(** Jobs currently queued (not counting the one executing). *)

val stats : t -> int * int * int
(** [(executed, rejected, depth)]. *)

val shutdown : t -> unit
(** Stop admitting, drain every already-accepted job, and join the
    executor thread. Idempotent. *)
