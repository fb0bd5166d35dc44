(** Metric registries and the telemetry on/off switch.

    A registry is a first-class value: a named population of counters
    and histograms plus its own gate. Engine and solver metrics live in
    one population, {!default}: every instrumented module binds its
    metrics there once, at module initialization. Looking a name up
    twice in the same registry returns the same instance, which is how
    independent layers share a metric (e.g. the engines read the
    randomness layer's [local.rng.draws] to report per-round deltas).

    A run's own counters are always a {e delta} over [default]: snapshot
    {!counters} before the run and take {!deltas} after it. The trace
    recorder and the serve daemon's per-request telemetry both do this,
    and the single serve executor (lib/serve) guarantees no other run
    moves [default] in between. {!create} makes a separate population
    for metrics of a different kind, such as the daemon's always-on
    request metrics.

    Names are dot-separated, [layer.component.metric] — the full scheme
    is documented in DESIGN.md §9.

    While a registry is disabled (the default), every counter increment
    and histogram observation created in it is a load-and-branch no-op;
    enabling costs nothing retroactively, so a CLI flag can switch
    telemetry on for one run without rebuilding. *)

type t

val create : unit -> t
(** A fresh, empty, disabled registry. *)

val default : t
(** The process-wide registry every instrumented layer counts into. *)

val enable : ?reg:t -> unit -> unit
(** Open the gate of [reg] (default: {!default}). *)

val disable : ?reg:t -> unit -> unit
val enabled : ?reg:t -> unit -> bool

val counter : t -> string -> Counter.t
(** Find-or-create. @raise Invalid_argument if the name is registered as
    a histogram. *)

val histogram : t -> string -> Histogram.t
(** Find-or-create. @raise Invalid_argument if the name is registered as
    a counter. *)

val counters : ?reg:t -> unit -> (string * int) list
(** All registered counters with their current values, sorted by name
    (default: {!default}). *)

val histograms : ?reg:t -> unit -> (string * Histogram.snapshot) list
(** All registered histograms with their snapshots, sorted by name. *)

val reset : ?reg:t -> unit -> unit
(** Zero every registered metric (used between traced runs). *)

val deltas : (string * int) list -> (string * int) list
(** [deltas base] is every counter of {!default} whose value changed
    since [base], a {!counters} snapshot, as [(name, change)] pairs
    sorted by name. *)
