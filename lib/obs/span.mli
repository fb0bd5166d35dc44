(** Hierarchical timing spans with near-zero disarmed cost.

    A span is a labelled interval with a parent, forming per-request
    (per-{e trace-id}) trees: the serve stack opens a root span per
    request, the engines open one per round, the pool one per executed
    chunk. Closed spans are buffered per pool slot (see
    {!Repro_local.Pool.worker_index}), so armed recording never
    contends; while disarmed every operation is a single boolean load
    (the {!Provenance} discipline). The dispatching slot's buffer grows
    and never drops — it holds every engine round span, whose kvs are
    the round's statistics (DESIGN.md §9). Worker slots hold only
    [pool.chunk] spans in fixed rings that shed their oldest entries on
    overflow. {!Trace.record} arms spans and drains them into its event
    stream as [Trace.Span] events.

    Arming has a single mutator, never while a pool job is in flight.
    The serve scheduler's single executor satisfies this by
    construction; one-shot CLI runs arm around the whole run. *)

type span = {
  trace_id : int;  (** groups the spans of one recording/request *)
  span_id : int;  (** unique within the trace *)
  parent : int;  (** [span_id] of the enclosing span, or [-1] for a root *)
  label : string;
      (** dot-separated, [layer.operation]; labels prefixed [pool.] are
          schedule-dependent and dropped by
          {!Trace.deterministic_projection} *)
  start_ns : int;  (** {!Clock.now_ns} at entry (monotonic origin) *)
  stop_ns : int;  (** {!Clock.now_ns} at exit; [>= start_ns] *)
  kvs : (string * int) list;
      (** attributes; keys ending in [_ns] are timing data and stripped
          by the deterministic projection *)
}
(** One closed interval of a hierarchical timing tree. *)

type handle
(** An open span. Handles returned while disarmed are inert: exiting
    them is a no-op, so callers need not branch on {!armed}. *)

val null : handle
(** The inert handle ({!live} is [false]). *)

val live : handle -> bool
(** [false] for handles issued while disarmed — use it to skip building
    an [exit ~kvs] attribute list on the disarmed path. *)

val arm : ?trace_id:int -> unit -> int
(** Start recording under the given trace id (default: fresh from
    {!fresh_trace_id}); sizes one ring per current pool slot. Returns
    the trace id. Replaces any recording in progress. *)

val disarm : unit -> unit
(** Stop recording; buffered spans stay available to {!take}. *)

val armed : unit -> bool

val fresh_trace_id : unit -> int
(** Process-unique (atomic counter). The serve layer assigns one per
    request — also to requests that never arm, so log lines can always
    join against span dumps. *)

val enter : ?start_ns:int -> ?parent:int -> string -> handle
(** Open a span on the calling slot's stack; its parent is [parent] if
    given, else the slot's innermost open span, or — for a worker slot
    between chunks — the dispatching slot's innermost open span.
    [start_ns] (default: now) lets a caller backdate the root to a
    timestamp taken on another thread, e.g. request arrival. *)

val dispatch_parent : unit -> int
(** The dispatching slot's innermost open span id, or [-1]. The pool
    latches it into a job at dispatch and parents every chunk span to
    it: read live from a worker, it could already be slot 0's own chunk
    span. *)

val exit : ?kvs:(string * int) list -> handle -> unit
(** Close the span and write it to the slot's ring. Keys ending in
    [_ns] are treated as timing data by the deterministic projection. *)

val with_span : ?kvs:(string * int) list -> string -> (unit -> 'a) -> 'a
(** [enter]/[exit] around a callback (also on exceptions). *)

val record :
  label:string ->
  start_ns:int ->
  stop_ns:int ->
  ?parent:int ->
  ?kvs:(string * int) list ->
  unit ->
  int
(** Write an already-measured interval (timestamps collected elsewhere,
    e.g. queue wait measured across threads) as a closed span; parent
    defaults as in {!enter}. Returns the span id, or [-1] while
    disarmed. *)

val take : unit -> span list
(** Disarm and drain: the dispatching slot's spans first (deterministic
    order), then the worker slots' chunk spans. An overflowed worker
    ring yields its newest {e capacity} spans. *)

val dropped : unit -> int
(** Worker chunk spans lost to ring overflow so far (reset by
    {!take}/{!arm}); the dispatching slot never drops. *)

val abort : unit -> unit
(** Disarm and discard the buffered spans. *)

val set_worker_source : slots:(unit -> int) -> index:(unit -> int) -> unit
(** Register the pool's slot geometry ([Pool.worker_slots] /
    [Pool.worker_index]); called by [Repro_local.Pool] at module
    initialization. Defaults to a single slot 0. *)
