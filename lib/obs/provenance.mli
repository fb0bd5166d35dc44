(** Per-message influence tracking and radius certificates: the dynamic
    checker of the LOCAL-model invariant "after T rounds, a node's output
    is a function of its radius-T ball" (paper §2) that every complexity
    claim in the reproduction rests on.

    When audit mode is armed, the round engine ({!Repro_local.Frontier})
    attaches to every node (and to every in-flight message) a compact
    {!Bitset} of {e origin} nodes whose
    initial state has reached it; mailbox delivery unions the sender's
    set into the receiver's. At halt the engine {!submit}s the per-node
    influence sets together with the rounds each node was active, and
    {!certify} checks them against the solver's declared round bound:
    node [v] with declared bound [T_v] must satisfy
    [influence(v) ⊆ Ball(v, T_v)] — every influencing origin lies within
    graph distance [T_v]. A violation names the leaked source, its
    distance, and the earliest engine round at which information from
    that source could have arrived.

    Audit mode is gated exactly like the rest of [lib/obs]: while
    disarmed (the default) the engine pays one boolean load per run, and
    no bitset is ever allocated. Influence sets grow only through
    per-slot writes owned by a single loop index (the same ownership
    discipline as the mailboxes, see {!Repro_local.Pool}), and set union
    is commutative and idempotent, so audits — and hence certificates —
    are bit-identical for every pool size.

    This module is graph-agnostic: distances are supplied by the caller
    (see {!Repro_local.Audit} for the wiring against
    [Repro_graph.Traversal]). *)

(** Fixed-capacity bitsets over node indices [0 .. len-1], the influence
    representation. Mutating operations are plain writes: a set must be
    mutated by at most one domain at a time (the engines guarantee
    per-slot ownership). *)
module Bitset : sig
  type t

  val create : int -> t
  (** All-empty set of the given capacity. *)

  val length : t -> int
  (** The capacity [len] it was created with. *)

  val add : t -> int -> unit
  val mem : t -> int -> bool

  val blit : src:t -> dst:t -> unit
  (** [dst := src]. Capacities must match. *)

  val union_into : into:t -> t -> unit
  (** [into := into ∪ src]. Capacities must match. *)

  val cardinal : t -> int

  val iter : (int -> unit) -> t -> unit
  (** Members in ascending order. *)

  val equal : t -> t -> bool
end

type audit = {
  engine : string;
      (** ["frontier"]; the fuzz layer's boxed reference engine submits
          ["boxed"] *)
  n : int;
  influence : Bitset.t array;  (** per node: origins that reached it *)
  rounds_active : int array;  (** per node: rounds before halting *)
}

(** {2 Recorder} — main-domain only, armed around one engine run, like
    {!Trace}. *)

val start : unit -> unit
(** Arm audit mode: the next engine run tracks influence and submits. *)

val active : unit -> bool

val submit : audit -> unit
(** Called by the engine at halt. Kept only while armed; if several
    engine runs happen under one audit window, the last submission
    wins. *)

val take : unit -> audit option
(** Disarm and return the last submitted audit, if any. *)

val abort : unit -> unit
(** Disarm and drop any submission (used by protective finalizers when
    an audited run raises). *)

(** {2 Certification} *)

type node_record = {
  node : int;
  rounds_active : int;
  influence_radius : int;
      (** max graph distance from the node to any influencing origin *)
  ball_radius : int;  (** the declared bound [T_v] being certified *)
  influence_size : int;
}

type violation = {
  v_node : int;  (** the node whose ball was exceeded *)
  v_source : int;  (** the leaked origin *)
  v_distance : int;  (** its graph distance ([max_int] if unreachable) *)
  v_bound : int;  (** the declared bound that was violated *)
  v_round : int;
      (** earliest engine round at which information from the source
          could have reached the node (its distance; a lower bound) *)
}

type certificate = {
  c_label : string;
  c_engine : string;
  c_n : int;
  c_declared : int;  (** max declared bound over nodes *)
  c_max_influence_radius : int;
  c_records : node_record array;  (** one per node, ascending *)
  c_histogram : (int * int) list;
      (** influence radius → node count, ascending *)
  c_violations : violation list;
  c_ok : bool;  (** no violations *)
}

val certify :
  label:string ->
  declared:(int -> int) ->
  dist_from:(int -> int array) ->
  audit ->
  certificate
(** [certify ~label ~declared ~dist_from audit] checks
    [influence(v) ⊆ Ball(v, declared v)] for every node. [dist_from v]
    returns graph distances from [v] to every node (negative =
    unreachable, which always violates); it is called once per node. *)

val to_events : certificate -> Trace.event list
(** One [Trace.Audit] event per node followed by a closing
    [Trace.Cert] summary — the machine-readable certificate, JSONL-able
    via {!Trace.write_jsonl}. Deterministic for every pool size. *)

val pp_violation : Format.formatter -> violation -> unit
