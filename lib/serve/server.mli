(** The [repro serve] daemon: a long-lived service over the process's one
    domain pool.

    One systhread per client connection reads length-prefixed JSON frames
    ({!Protocol}); every engine-running request goes through the
    {!Scheduler} (FIFO-fair, bounded, explicit [busy] backpressure) and
    executes alone, so its reply's telemetry is the change in the process
    registry's counters across that request
    ({!Repro_obs.Registry.deltas}) and a failed request can abort only
    its own trace. Successful replies to deterministic requests are
    cached by canonical request hash ({!Cache}), alongside artifact
    caches for gadget families, padded hierarchy levels, and hard
    instances.

    Request vocabulary ([op] field): [solve], [check], [audit], [fuzz],
    [bench], [stats], [metrics]. Every op bounds its work: [solve] and
    [check] take [n] in [[2, 2·10^6]], [audit] takes [n] in
    [[2, 10_000]] (an audit holds n + 2m influence bitsets of n bits
    and runs a BFS from every node), [fuzz] takes [count] in
    [[1, 1_000]]; anything else is a [bad-request] error. [stats] and
    [metrics] are answered inline by the connection thread — they only
    read counters — and are never cached; every other reply gains a
    ["cache": "hit" | "miss"] field. [metrics] renders the server's
    lifetime registry (per-op request counts, per-op latency histograms,
    queue-wait histogram) as Prometheus text exposition
    ({!Repro_obs.Expo}).

    Tracing: a request carrying ["spans": true] bypasses the reply cache
    (its reply embeds a request-specific span tree) and comes back with
    ["trace_id"] and ["spans"] — the full hierarchical span tree of its
    execution, from a root backdated to request arrival through
    queue-wait, cache-probe, execute (with per-round engine spans and
    pool chunk spans underneath), and encode children. Every request,
    traced or not, is assigned a trace id, which the JSONL request log
    records together with its measured queue wait — see README §Serving
    for the full log schema. *)

type addr = Unix_path of string | Tcp of string * int

type config = {
  addr : addr;
  queue_capacity : int;  (** admission bound before [busy] replies *)
  reply_cache_capacity : int;
  log_path : string option;  (** JSONL request log, one line per reply *)
}

val default_config : addr -> config
(** [queue_capacity = 64], [reply_cache_capacity = 256], no log. *)

type t

val start : config -> t
(** Bind, listen, and spawn the accept thread; returns immediately.
    Raises [Unix.Unix_error] if the address cannot be bound. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain every already-admitted
    request, close live connections, join all threads. Idempotent. *)

val stats_json : t -> Repro_obs.Json.t
(** The same document the [stats] op returns, for in-process callers. *)

val run : config -> unit
(** [start], then block until SIGTERM or SIGINT, then [stop] — the
    [repro serve] main loop. Returns normally (exit 0) on either
    signal. *)
