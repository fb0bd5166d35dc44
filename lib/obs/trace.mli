(** Per-round structured trace of a simulation run, exported as JSON
    lines.

    A trace is a sequence of events: an optional [Meta] header, one
    [Round] event per engine round (emitted by {!Repro_local.Frontier}
    for the state-machine engine and by
    {!Repro_local.Message_passing.flood_gather}), and a closing
    block of [Counter] events holding the per-trace deltas of every
    registry counter — so the file is self-contained and the invariant
    "the round messages sum to the engine's message total" can be checked
    from the file alone.

    {2 Determinism}

    Everything in a [Round] except [chunks] and [chunk_ns] depends only
    on the instance and the algorithm, never on the pool size; the two
    excepted fields describe how the pool happened to execute the round.
    {!deterministic_projection} drops exactly those fields (and the
    [local.pool.*] counters), and the telemetry determinism suite in
    [test/test_obs.ml] asserts the projection is identical for
    sequential and parallel runs. For spans, the projection drops
    [pool.]-prefixed spans (worker chunk timing — the only
    schedule-dependent ones), strips the timing fields, and renumbers
    trace/span ids canonically in order of appearance (the raw ids come
    from per-slot counters, so they depend on the pool size). *)

type round = {
  engine : string;  (** ["frontier"] or ["flood_gather"] *)
  round : int;
  messages : int;  (** messages sent this round (active senders only) *)
  payload_bytes : int;  (** heap words of all payloads sent, in bytes *)
  mailbox_max : int;  (** largest mailbox read by an active node *)
  mailbox_mean : float;  (** mean mailbox size over active nodes *)
  rng_draws : int;  (** {!Repro_local.Randomness} draws during the round *)
  chunks : int;  (** pool chunks dispatched (timing data, see above) *)
  chunk_ns : int;  (** total chunk wall time (timing data, see above) *)
}

type span = {
  trace_id : int;  (** groups the spans of one recording/request *)
  span_id : int;  (** unique within the trace *)
  parent : int;  (** [span_id] of the enclosing span, or [-1] for a root *)
  label : string;
      (** dot-separated, [layer.operation]; labels prefixed [pool.] are
          schedule-dependent and dropped by {!deterministic_projection} *)
  start_ns : int;  (** {!Clock.now_ns} at entry (monotonic origin) *)
  stop_ns : int;  (** {!Clock.now_ns} at exit; [>= start_ns] *)
  kvs : (string * int) list;
      (** attributes; keys ending in [_ns] are timing data and stripped
          by the deterministic projection *)
}
(** One closed interval of a hierarchical timing tree — recorded by
    {!Span}, carried in the same event stream as rounds and counters so
    one JSONL file holds the whole observation of a run. *)

type event =
  | Meta of { label : string; n : int }
  | Round of round
  | Counter of { name : string; value : int }
  | Span of span
  | Audit of {
      node : int;
      rounds_active : int;
      influence_radius : int;
          (** max distance to an origin that influenced the node *)
      ball_radius : int;  (** the declared bound being certified *)
      influence_size : int;
    }
      (** One per node of an audited run — emitted by
          {!Provenance.to_events} from a radius certificate. *)
  | Cert of {
      label : string;
      engine : string;
      nodes : int;
      declared : int;
      max_influence_radius : int;
      violations : int;  (** (node, leaked source) pairs *)
      ok : bool;
    }  (** Closing summary of a radius certificate. *)

(** {2 Recorder} — one per registry, resolved against the ambient
    registry ({!Registry.ambient}) on every call; the engines emit
    between parallel phases, from the dispatching domain only. Under the
    serve scheduler each request runs inside its own
    {!Registry.scoped}, so recordings are isolated per request. *)

val start : ?label:string -> ?n:int -> unit -> unit
(** Start a fresh recording on the ambient registry: enable it,
    snapshot its counter values and begin buffering; emits a [Meta]
    event when [label]/[n] are given. Replaces any recording already
    open on that registry. *)

val active : unit -> bool
(** Whether the ambient registry has a recording open. *)

val emit : event -> unit
(** Dropped unless the ambient registry is recording. *)

val events : unit -> event list
(** Events recorded so far on the ambient registry, oldest first. *)

val finish : unit -> event list
(** Append the per-trace counter deltas, close the ambient registry's
    recording, and return the full trace (the registry stays enabled;
    disable it via {!Registry.disable} if telemetry should go quiet
    again). [[]] if no recording was open. *)

val abort : unit -> unit
(** Close the {e ambient} registry's recording and drop its buffer and
    counter baselines — other registries' recorders stay armed, so one
    request raising mid-trace cannot tear down a concurrent request's
    recording. Call this when an engine raises mid-run while a trace is
    active — otherwise the recorder stays armed and the next run's
    trace silently inherits stale events and baselines. *)

val record : ?label:string -> ?n:int -> (unit -> 'a) -> 'a * event list
(** [record f] runs [f] between {!start} and {!finish} with a protective
    finalizer: if [f] raises, the recorder is {!abort}ed before the
    exception is re-raised. The preferred way to trace one run. *)

(** {2 JSONL} *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
val write_jsonl : string -> event list -> unit
val read_jsonl : string -> (event list, string) result

(** {2 Analysis} *)

val deterministic_projection : event list -> event list
val deterministic_equal : event list -> event list -> bool

val total_messages : ?engine:string -> event list -> int
(** Sum of [messages] over [Round] events (of [engine] if given). *)

val counter_value : string -> event list -> int option
(** Value of the last [Counter] event with that name, if any. *)

val spans : event list -> span list
(** All [Span] events, in stream order. *)

val check_invariants : event list -> string list
(** Recompute the recorded invariants offline, from the events alone:
    per-engine round message sums equal the engine's counter delta,
    round numbering is consecutive, audit records respect their declared
    balls, certificate summaries agree with the records they close, and
    spans nest (unique ids per trace, parents resolve, child intervals
    inside parent intervals). Returns failure messages; [[]] means the
    trace is consistent. This is the engine behind [repro trace-report]. *)
