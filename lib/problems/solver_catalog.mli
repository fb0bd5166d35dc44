(** The solve catalog behind [repro solve] and the serve [solve] op.

    Each entry solves one fixed instance family (the same families the
    audit catalog benchmarks) and renders the result as {e canonical
    bytes} — a text dump of the labeling, the round count and the
    checker verdict. Byte-equality of those dumps across pool sizes and
    dispatch policies is the catalog's contract: the golden tests and
    the CI [cmp] gate compare exactly these bytes, at whatever
    [REPRO_DOMAINS] is in force. *)

type solved = {
  s_rounds : int;  (** engine rounds charged (meter / verdict) *)
  s_valid : bool;  (** centralized checker's verdict on the output *)
  s_output : string;
      (** canonical labeling bytes; identical at every pool size *)
}

type entry = {
  c_name : string;  (** stable name: mis, luby-mis, coloring, flood, dcheck *)
  c_doc : string;
  c_solve : seed:int -> n:int -> solved;
}

val all : entry list
(** mis, luby-mis, coloring (simple 3-regular), flood (simple
    3-regular, radius 3, id payloads), dcheck (hard SO instances,
    checking a deterministic SO solution). *)

val names : string list
val find : string -> entry option

val solve :
  problem:string ->
  seed:int ->
  n:int ->
  (solved, string) result
(** Convenience lookup + run; [Error] lists the known problems. *)
