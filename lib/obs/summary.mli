(** Text rendering of telemetry: counter/histogram tables for [--stats]
    and a per-round table for recorded traces. *)

val pp : Format.formatter -> unit -> unit
(** Registry summary: all non-zero counters and histograms. *)

val pp_counters : Format.formatter -> unit -> unit
val pp_histograms : Format.formatter -> unit -> unit

val pp_trace : Format.formatter -> Trace.event list -> unit
(** One table row per engine round span ({!Trace.span_engine}), with
    [mean] = [messages / active], plus one line per [Meta] header and
    [Cert] summary; [Counter] and per-node [Audit] events are omitted
    (use {!pp} and {!pp_certificate} for those). *)

val pp_certificate : Format.formatter -> Provenance.certificate -> unit
(** The [repro audit] report: verdict, influence-radius histogram
    against the declared bound, and the first few violations. *)

(** {2 Span trees} — the rendering behind [repro trace-report --spans]. *)

type span_node = { node : Trace.span; children : span_node list }

val span_forest : Trace.span list -> (int * span_node list) list
(** Rebuild the span trees, grouped by trace id (in first-appearance
    order); siblings are ordered by start time then span id. Spans
    whose parent is absent (lost to ring overflow) surface as extra
    roots. *)

val critical_path : span_node -> span_node list
(** Root-to-leaf chain following the largest-duration child at each
    level. *)

val self_time : span_node -> int
(** Duration not covered by the node's children, clamped at 0. *)

val label_attribution : span_node list -> (string * int) list
(** Total self time per label across the forest, largest first. *)

val pp_span_report : Format.formatter -> Trace.span list -> unit
(** Per trace: the indented span tree with durations and attributes,
    each root's critical path, and the per-label self-time table. *)
