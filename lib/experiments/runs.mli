(** The experiment registry: every figure/claim of the paper as a runnable
    experiment returning structured {!Table}s (see DESIGN.md §4 for the
    index and EXPERIMENTS.md for the paper-vs-measured record).

    The CLI runs these: [bin/repro.exe experiment <id>] one of them,
    [experiment all] every one in order through {!run_and_print};
    [quick] shrinks instance sizes for interactive use. *)

type outcome = {
  tables : Table.t list;
  plots : string list;  (** pre-rendered ASCII plots *)
}

type experiment = {
  id : string;      (** e.g. "F1", "T11" *)
  doc : string;
  run : quick:bool -> outcome;
}

val all : experiment list
val ids : string list
val find : string -> experiment option
val run_and_print : ?quick:bool -> experiment -> unit

val landscape : int list -> Table.t
(** The Figure-1 table of F1 at the given sizes: one row per registry
    landscape row ({!Core.Problem.landscape}), its declared class in the
    paper column. [repro landscape] prints it. *)
