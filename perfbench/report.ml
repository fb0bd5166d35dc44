(* What one run reports, and how it is printed: a human-readable block,
   a provenance line, and — always last on stdout — the one-line JSON
   result. *)

module Json = Core.Obs.Json

type metric = string * float * string  (** name, value, unit *)

type t = {
  attempted : int;
  failed : int;
  failures : string list;  (** distinct failure reasons, for the log *)
  ops : int;  (** timed ops (batch) or requests (serve) *)
  metrics : metric list;
  notes : string list;
}

let now () = Unix.gettimeofday ()

(* the process's own start, as close as the runtime lets us see it *)
let process_start = now ()

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* p99, or — when fewer than ten samples would lie beyond a p99 — the
   highest percentile that still has ten beyond it, but never below the
   median: a handful of ops supports no tail estimate *)
let tail xs =
  let n = float_of_int (List.length xs) in
  Float.max (median xs) (quantile (Float.min 0.99 (1. -. (10. /. n))) xs)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

(* a "Key:  value" line of /proc/self/status *)
let proc_status key =
  match read_file "/proc/self/status" with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> None)
      (String.split_on_char '\n' s)

let peak_rss_mb () =
  match proc_status "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> ( try float_of_string kb /. 1024. with Failure _ -> 0.)
    | [] -> 0.)
  | None ->
    (* no procfs: the OCaml heap's high-water mark is the best we have *)
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* CPUs this process may run on — what `nproc` prints *)
let nproc () =
  let count range =
    match String.split_on_char '-' range with
    | [ a; b ] -> int_of_string b - int_of_string a + 1
    | _ -> 1
  in
  match proc_status "Cpus_allowed_list" with
  | Some l -> (
    try List.fold_left (fun n r -> n + count r) 0 (String.split_on_char ',' l)
    with Failure _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* the checkout's commit, read from .git without running git; a source
   tree that is not a git repository reports "unknown" *)
let git_commit () =
  let trim = Option.map String.trim in
  match trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match trim (read_file (".git/" ^ r)) with
    | Some c -> c
    | None -> (
      match read_file ".git/packed-refs" with
      | None -> "unknown"
      | Some packed ->
        Option.value ~default:"unknown"
          (List.find_map
             (fun line ->
               match String.split_on_char ' ' line with
               | [ c; name ] when name = r -> Some c
               | _ -> None)
             (String.split_on_char '\n' packed))))
  | Some c -> c

let provenance ~workload ~seed ~seconds ~trace ~pool (r : t) =
  let cores = nproc () and rec_dc = Domain.recommended_domain_count () in
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("ops", Json.Int r.ops);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "error_rate",
        Json.Float
          (if r.attempted = 0 then 0.
           else float_of_int r.failed /. float_of_int r.attempted) );
      ("nproc", Json.Int cores);
      ("recommended_domain_count", Json.Int rec_dc);
      ("pool_size", Json.Int pool);
      (* a pool larger than the cores cannot show a parallel speed-up: the
         old baseline silently came from such a host *)
      ("pool_exceeds_cores", Json.Bool (pool > cores));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String (git_commit ()));
    ]

let print ~provenance (r : t) =
  Printf.printf "provenance %s\n" (Json.to_string provenance);
  List.iter (fun n -> Printf.printf "note: %s\n" n) r.notes;
  List.iter (fun f -> Printf.printf "failure: %s\n" f) r.failures;
  List.iter (fun (name, v, u) -> Printf.printf "%-32s %16.4f %s\n" name v u) r.metrics;
  let metric (name, v, u) =
    (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (r.failed = 0));
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("metrics", Json.Obj (List.map metric r.metrics));
      ]
  in
  print_endline (Json.to_string result)
