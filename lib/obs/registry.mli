(** Metric registries and the telemetry on/off switch.

    A registry is a first-class value: a named population of counters
    and histograms plus its own gate. The process starts with one,
    {!default}, and long-lived services create one {b per request} so
    concurrent requests cannot bleed telemetry into each other.

    Instrumented layers do not hold metrics at module initialization any
    more; they resolve them against the {e ambient} registry at run
    entry ({!ambient}, usually through a per-module memo keyed on
    physical registry identity). Looking a name up twice in the same
    registry returns the same instance, which is how independent layers
    share a metric (e.g. the engine reads the pool's chunk counters to
    compute per-round deltas).

    Names are dot-separated, [layer.component.metric] — the full scheme
    is documented in DESIGN.md §9.

    {2 Ambient scoping contract}

    {!scoped} installs a registry as the ambient one for the duration of
    a callback. The ambient slot is a single unsynchronized cell read by
    every instrumented layer, including pool worker domains; the
    contract is {b single mutator, no concurrent scopes}: only one
    systhread may be inside {!scoped} (or toggling gates) at a time, and
    it must not switch scopes while a pool job is in flight. The serve
    scheduler (lib/serve) guarantees this by executing requests one at a
    time; one-shot CLI runs trivially satisfy it by never scoping at
    all.

    While a registry is disabled (the default), every counter increment
    and histogram observation created in it is a load-and-branch no-op;
    enabling costs nothing retroactively, so a CLI flag can switch
    telemetry on for one run without rebuilding. *)

type t

val create : unit -> t
(** A fresh, empty, disabled registry. *)

val default : t
(** The process-wide registry: the ambient one until {!scoped} says
    otherwise, and the one one-shot CLI runs use throughout. *)

val ambient : unit -> t
(** The registry instrumented layers resolve metrics against. *)

val scoped : t -> (unit -> 'a) -> 'a
(** [scoped reg f] runs [f] with [reg] ambient, restoring the previous
    ambient registry afterwards (also on exceptions). See the scoping
    contract above. *)

val enable : ?reg:t -> unit -> unit
(** Open the gate of [reg] (default: the ambient registry). *)

val disable : ?reg:t -> unit -> unit
val enabled : ?reg:t -> unit -> bool

val live : t -> bool
(** [live t] = [enabled ~reg:t ()]; the one-load form engine hot paths
    use on an already-resolved registry. *)

val counter : t -> string -> Counter.t
(** Find-or-create. @raise Invalid_argument if the name is registered as
    a histogram. *)

val histogram : t -> string -> Histogram.t
(** Find-or-create. @raise Invalid_argument if the name is registered as
    a counter. *)

val counters : ?reg:t -> unit -> (string * int) list
(** All registered counters with their current values, sorted by name
    (default: the ambient registry). *)

val histograms : ?reg:t -> unit -> (string * Histogram.snapshot) list
(** All registered histograms with their snapshots, sorted by name. *)

val reset : ?reg:t -> unit -> unit
(** Zero every registered metric (used between traced runs). *)
