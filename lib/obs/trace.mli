(** Structured trace of a simulation run, exported as JSON lines.

    A trace is a sequence of events: an optional [Meta] header, the
    [Audit]/[Cert] blocks of any radius certificates issued during the
    run, one [Span] event per closed span (drained from {!Span}), and a
    closing block of [Counter] events holding the per-trace deltas of
    every registry counter — so the file is self-contained.

    Engine rounds are spans: {!Repro_local.Frontier} records one
    [frontier.round] span per round and
    {!Repro_local.Message_passing.flood_gather} one [flood.round] span,
    each carrying the round's statistics as int kvs ([round], [active],
    [messages], [payload_bytes], [mailbox_max], [rng_draws]; DESIGN.md
    §9). The invariant "an engine's round messages sum to its message
    counter" is checked from the file alone.

    {2 Determinism}

    Round kvs depend only on the instance and the algorithm, never on
    the pool size. {!deterministic_projection} drops what describes how
    the pool happened to execute the work: [pool.]-prefixed spans
    (worker chunk timing), the [local.pool.*] counters and the
    [obs.spans_dropped] counter. It also strips the timing fields and
    renumbers trace/span ids canonically in order of appearance (the
    raw ids come from per-slot counters, so they depend on the pool
    size). The telemetry determinism suite in [test/test_obs.ml] asserts
    the projection is identical for sequential and parallel runs. *)

type span = Span.span = {
  trace_id : int;
  span_id : int;
  parent : int;
  label : string;
  start_ns : int;
  stop_ns : int;
  kvs : (string * int) list;
}

type event =
  | Meta of { label : string; n : int }
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

(** {2 Recorder} — one per process, fed from the dispatching domain
    only. *)

val record : ?label:string -> ?n:int -> (unit -> 'a) -> 'a * event list
(** [record f] enables {!Registry.default}, snapshots its counters,
    arms {!Span} and runs [f]. It then returns [f]'s result and the
    trace: a [Meta] event when [label]/[n] are given, whatever [f]
    emitted, every drained span, an [obs.spans_dropped] counter if
    worker rings overflowed, and the per-trace counter deltas. If [f]
    raises, both recorders are discarded before the exception is
    re-raised, so the next recording starts clean. The registry stays
    enabled; disable it via {!Registry.disable} if telemetry should go
    quiet again. *)

val active : unit -> bool
(** Whether a {!record} is in progress. *)

val emit : event -> unit
(** Dropped unless a {!record} is in progress. *)

(** {2 JSONL} *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
val write_jsonl : string -> event list -> unit
val read_jsonl : string -> (event list, string) result

(** {2 Analysis} *)

val deterministic_projection : event list -> event list
val deterministic_equal : event list -> event list -> bool

val kv : string -> span -> int
(** A span's int attribute, [0] if absent. *)

val span_engine : span -> string option
(** [Some engine] for an engine round span ([frontier.round],
    [flood.round]), [None] for every other span. *)

val total_messages : ?engine:string -> event list -> int
(** Sum of the [messages] kv over round spans (of [engine] if given). *)

val counter_value : string -> event list -> int option
(** Value of the last [Counter] event with that name, if any. *)

val spans : event list -> span list
(** All [Span] events, in stream order. *)

val check_invariants : event list -> string list
(** Recompute the recorded invariants offline, from the events alone:
    in a recording (a stream with counter events) each engine's round
    message kvs sum to its counter delta, round numbering is
    consecutive, audit records respect their declared balls,
    certificate summaries agree with the records they close, and spans
    nest (unique ids per trace, parents resolve, child intervals inside
    parent intervals). Returns failure messages; [[]] means the trace is
    consistent. This is the engine behind [repro trace-report]. *)
