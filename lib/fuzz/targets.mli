(** The fuzz-target registry behind [repro fuzz]: one named property per
    oracle, with its generator and case pretty-printer packed
    existentially so the CLI can run any subset uniformly. *)

type t = {
  t_name : string;  (** stable CLI name *)
  t_doc : string;  (** one line: generated family + oracle *)
  t_prop : packed;
}

and packed = P : 'a Prop.t -> packed

val all : t list
(** so, colorful, two-coloring, dcheck, engines, engine-vs-boxed,
    gadget, padding, provenance. *)

val names : string list

val find : string -> t option

val run : t -> count:int -> seed:int -> Prop.report
(** {!Prop.run} on the packed property. *)

val json_of_report : Prop.report -> Repro_obs.Json.t
(** One target's report as JSON (schema ["repro-fuzz/1"] member). *)

val json_summary : seed:int -> count:int -> Prop.report list -> Repro_obs.Json.t
(** The full [repro fuzz --json] document:
    [{schema; seed; count; ok; targets: [...]}]. Deterministic — no
    timings or environment data. *)
