(* Validate a BENCH_parallel.json against the repro-bench-parallel/8
   schema and, with --against, gate it against a baseline file. The
   runtest smoke rule and every CI bench job run this right after
   `main.exe`, so a malformed bench file fails the pipeline instead of
   silently corrupting the perf trajectory.

   Usage: check_bench.exe FILE [--against BASELINE] [--max-par-seq-ratio X]

   Validation (FILE, and BASELINE when given; exit 1 on the first
   failure):
     - the top-level and "serve" key sets are closed: an unknown key
       means the writer and this checker have drifted apart;
     - shapes and signs of every column; the serve counters consistent
       with one cold pass of the mix and warm passes that hit;
     - all three dcheck legs when one is present, and the 1M replay leg
       with its per-round frontier columns;
     - on the flood-replay leg every node halts right after its declared
       radius, so active_nodes must never rise. A violation means the
       engine re-activated a halted node — a frontier-contract break
       (DESIGN.md §13), not a perf regression.

   --max-par-seq-ratio X: every case's median par_seq_ratio must be at
   most X — the dispatch-smoke CI job's absolute bound on parallel
   overhead.

   --against BASELINE: hard failures (exit 1 after all are printed):
     - FILE's serve warm/cold ratio (cold_ns / warm_ns) falls below 5x:
       the reply cache exists to make a warm gadget-family-heavy mix at
       least that much faster than its cold pass, and both numbers come
       from the same host seconds apart, so the ratio is stable enough
       to gate;
     - a baseline case is missing from FILE (the trajectory would
       silently lose a data point);
     - a case's normalized minor-heap allocation regresses by more than
       2x. Allocation is compared per round per node
       (minor_words_per_round / n), which makes a --quick run (n=600)
       comparable against the committed full-size baseline (n=3000) on
       the engine legs, whose per-node minor allocation hardly depends
       on n; the 2x tolerance absorbs the residual fixed costs that
       don't scale with n. Per-node minor words are not size-independent
       in general: an array over the 256-word minor-heap limit goes
       straight to the major heap and drops out of the count, so a leg
       whose node-sized arrays cross that limit between the two sizes
       is not comparable. The three gadget legs (gadget-build-h8,
       gadget-check-h8, verifier-h8) therefore run at height 8 under
       --quick too;
     - the serve leg's disarmed span instrumentation costs more than 3%
       over the baseline, at equal span workload only (a --quick run
       against the full-size baseline is skipped, not compared). The
       disarmed path is the one every untraced request pays, so its cost
       is gated directly; the traced/disarmed overhead ratio is printed
       for information but never gated — a slower disarmed denominator
       would shrink it, moving it the wrong way exactly when the
       regression happens;
     - a case's median par/seq ratio exceeds 1.15 — an absolute bound,
       not baseline-relative: the dispatch rule exists to keep parallel
       execution within 15% of sequential even when it cannot win. The
       ratio divides out the machine's absolute speed, since each pair's
       two sides run seconds apart on one host. The gate engages only
       for full-size runs at a baseline-matching n (a --quick run's
       quotas are too short to gate on, and across different n the
       dispatch/workload balance changes, so both are skipped). *)

module J = Repro_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let schema = "repro-bench-parallel/8"

(* a regression must be this many times the baseline to hard-fail;
   allocation below this floor (words per round per node) is noise from
   one-time setup and never gated *)
let alloc_ratio_limit = 2.0
let alloc_floor = 0.05
let par_seq_ratio_limit = 1.15
let serve_warm_ratio_floor = 5.0
let span_disarmed_limit = 1.03

type row = {
  name : string;
  n : int;
  par_seq_ratio : float;  (** median over the pairs *)
  minor_per_round : float;
}

type bench = {
  quick : bool;
  domains : int;
  cores : int;
  warm_cold_ratio : float;
  span_n : int;
  disarmed_ns : float;
  traced_ns : float;
  rows : row list;
}

let closed ~ctx allowed = function
  | J.Obj fields ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k allowed) then
          fail "%s: unknown key %S (allowed: %s)" ctx k
            (String.concat ", " allowed))
      fields
  | _ -> fail "%s is not a JSON object" ctx

let get ~ctx name j =
  match J.member name j with
  | Some v -> v
  | None -> fail "%s: missing field %S" ctx name

let as_int ~ctx name j =
  match J.to_int (get ~ctx name j) with
  | Some v -> v
  | None -> fail "%s: field %S is not an integer" ctx name

let as_num ~ctx name j =
  match J.to_float (get ~ctx name j) with
  | Some v -> v
  | None -> fail "%s: field %S is not a number" ctx name

let as_str ~ctx name j =
  match J.to_str (get ~ctx name j) with
  | Some v -> v
  | None -> fail "%s: field %S is not a string" ctx name

let positive ~ctx name j =
  let v = as_num ~ctx name j in
  if v <= 0.0 then fail "%s: %s = %g, want > 0" ctx name v;
  v

(* the per-round frontier columns: three equal-length arrays, counts
   non-negative, and on the replay leg active_nodes non-increasing *)
let check_frontier ~ctx ~name fr =
  let arr fname =
    match J.to_list (get ~ctx fname fr) with
    | Some l -> l
    | None -> fail "%s: frontier field %S is not an array" ctx fname
  in
  let ints fname =
    List.mapi
      (fun i v ->
        match J.to_int v with
        | Some x when x >= 0 -> x
        | Some _ -> fail "%s: negative frontier %S[%d]" ctx fname i
        | None -> fail "%s: frontier %S[%d] is not an integer" ctx fname i)
      (arr fname)
  in
  let active = ints "active_nodes" in
  let edges = ints "frontier_edges" and ns = ints "round_ns" in
  let rounds = List.length active in
  if rounds = 0 then fail "%s: empty frontier columns" ctx;
  if List.length edges <> rounds || List.length ns <> rounds then
    fail "%s: frontier columns have mismatched lengths" ctx;
  if name = "frontier-replay-1m" then
    ignore
      (List.fold_left
         (fun (i, prev) v ->
           if v > prev then
             fail
               "%s: active_nodes[%d] = %d rose above %d — the replay flood \
                re-activated halted nodes"
               ctx i v prev;
           (i + 1, v))
         (0, max_int) active)

let check_row ~file seen i r =
  let ctx = Printf.sprintf "%s: results[%d]" file i in
  let name = as_str ~ctx "name" r in
  if name = "" then fail "%s: empty case name" ctx;
  if Hashtbl.mem seen name then fail "%s: duplicate case name %S" ctx name;
  Hashtbl.replace seen name ();
  let ctx = Printf.sprintf "%s (%s)" ctx name in
  let n = as_int ~ctx "n" r in
  if n <= 0 then fail "%s: n = %d, want > 0" ctx n;
  if as_int ~ctx "rounds" r < 1 then fail "%s: rounds < 1" ctx;
  ignore (positive ~ctx "seq_ns_per_run" r);
  ignore (positive ~ctx "par_ns_per_run" r);
  let par_seq_ratio = positive ~ctx "par_seq_ratio" r in
  if as_num ~ctx "par_seq_spread" r < 0.0 then
    fail "%s: negative par_seq_spread" ctx;
  (* the allocation columns are Gc deltas; minor words cannot be
     negative *)
  let minor_per_round = as_num ~ctx "minor_words_per_round" r in
  if minor_per_round < 0.0 then fail "%s: negative minor_words_per_round" ctx;
  ignore (as_num ~ctx "promoted_words_per_round" r);
  (* dispatch economics: dispatch_ns 0 is the honest value on a host
     where the cutoff keeps every loop inline; grain is null exactly when
     nothing dispatched, else a positive observed ns/index *)
  if as_int ~ctx "dispatch_ns" r < 0 then fail "%s: negative dispatch_ns" ctx;
  (match get ~ctx "grain" r with
  | J.Null -> ()
  | v -> (
    match J.to_float v with
    | Some g when g > 0.0 -> ()
    | _ -> fail "%s: grain is neither a positive number nor null" ctx));
  (match J.member "frontier" r with
  | Some fr -> check_frontier ~ctx ~name fr
  | None ->
    if name = "frontier-replay-1m" then
      fail "%s: no \"frontier\" columns" ctx);
  { name; n; par_seq_ratio; minor_per_round }

(* the one loader: parse, validate, and keep what the gates read *)
let load file =
  let contents =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" file e
  in
  let j =
    match J.of_string contents with
    | Ok j -> j
    | Error e -> fail "%s: parse error: %s" file e
  in
  let ctx = file in
  closed ~ctx [ "schema"; "domains"; "cores"; "quick"; "serve"; "results" ] j;
  let s = as_str ~ctx "schema" j in
  if s <> schema then fail "%s: schema %S (want %s)" file s schema;
  let domains = as_int ~ctx "domains" j and cores = as_int ~ctx "cores" j in
  if domains < 1 || cores < 1 then
    fail "%s: domains = %d, cores = %d, want both >= 1" file domains cores;
  let quick =
    match J.to_bool (get ~ctx "quick" j) with
    | Some b -> b
    | None -> fail "%s: \"quick\" is not a boolean" file
  in
  (* the serve leg: cold-vs-warm over the reply cache plus the
     traced-vs-disarmed span pair *)
  let sv = get ~ctx "serve" j in
  let ctx = file ^ ": serve" in
  closed ~ctx
    [
      "mix"; "requests"; "cold_ns_per_req"; "warm_ns_per_req";
      "reply_cache_hits"; "reply_cache_misses"; "span_n"; "span_requests";
      "disarmed_ns_per_req"; "traced_ns_per_req";
    ]
    sv;
  if as_str ~ctx "mix" sv = "" then fail "%s: empty mix name" ctx;
  let requests = as_int ~ctx "requests" sv in
  if requests < 1 then fail "%s: requests = %d, want >= 1" ctx requests;
  let cold = positive ~ctx "cold_ns_per_req" sv in
  let warm = positive ~ctx "warm_ns_per_req" sv in
  (* the cold pass misses on every distinct request, the warm passes hit *)
  let misses = as_int ~ctx "reply_cache_misses" sv in
  if misses < requests then
    fail "%s: %d reply-cache misses for a %d-request cold pass" ctx misses
      requests;
  let hits = as_int ~ctx "reply_cache_hits" sv in
  if hits < requests then
    fail "%s: %d reply-cache hits — the warm passes never hit" ctx hits;
  let span_n = as_int ~ctx "span_n" sv in
  if span_n < 1 || as_int ~ctx "span_requests" sv < 1 then
    fail "%s: span_n and span_requests must be >= 1" ctx;
  let disarmed_ns = positive ~ctx "disarmed_ns_per_req" sv in
  let traced_ns = positive ~ctx "traced_ns_per_req" sv in
  let results =
    match J.to_list (get ~ctx:file "results" j) with
    | Some (_ :: _ as l) -> l
    | Some [] -> fail "%s: empty \"results\" array" file
    | None -> fail "%s: \"results\" is not an array" file
  in
  let seen = Hashtbl.create 16 in
  let rows = List.mapi (check_row ~file seen) results in
  (* the telemetry overhead story needs all three dcheck legs: gated-off
     baseline, live trace, and locality certificate *)
  if Hashtbl.mem seen "dcheck-so-3k" then
    List.iter
      (fun leg ->
        if not (Hashtbl.mem seen leg) then
          fail "%s: dcheck-so-3k present without its %s leg" file leg)
      [ "dcheck-so-3k-traced"; "dcheck-so-3k-audited" ];
  (* the scaling evidence needs the 1M replay leg: a bench file that
     silently dropped it would hide a frontier regression *)
  if not (Hashtbl.mem seen "frontier-replay-1m") then
    fail "%s: missing required case %S" file "frontier-replay-1m";
  {
    quick;
    domains;
    cores;
    warm_cold_ratio = cold /. warm;
    span_n;
    disarmed_ns;
    traced_ns;
    rows;
  }

let max_ratio limit cur =
  List.iter
    (fun r ->
      if r.par_seq_ratio > limit then
        fail "%s: par_seq_ratio %.3f above the --max-par-seq-ratio %.3f bound"
          r.name r.par_seq_ratio limit)
    cur.rows

(* the baseline-relative gates; returns the number of failures *)
let against base cur =
  let failures = ref 0 in
  let gate ok ~what fmt =
    Printf.ksprintf
      (fun s ->
        if ok then Printf.printf "ok    %-24s %s\n" what s
        else begin
          incr failures;
          Printf.eprintf "FAIL: %s: %s\n" what s
        end)
      fmt
  in
  (* an absolute floor on the current run, not a baseline-relative one —
     the 5x promise is part of the cache's contract, whatever the host *)
  gate
    (cur.warm_cold_ratio >= serve_warm_ratio_floor)
    ~what:"serve" "warm/cold ratio %.3f (floor %.1fx)" cur.warm_cold_ratio
    serve_warm_ratio_floor;
  if cur.span_n = base.span_n then
    gate
      (cur.disarmed_ns <= span_disarmed_limit *. base.disarmed_ns)
      ~what:"serve spans" "disarmed %.0f ns/req (baseline %.0f, limit %.2fx)"
      cur.disarmed_ns base.disarmed_ns span_disarmed_limit
  else
    Printf.printf
      "skip  %-24s span_n %d vs baseline %d — incomparable workloads\n"
      "serve spans" cur.span_n base.span_n;
  Printf.printf "info  %-24s traced/disarmed overhead %.3fx\n" "serve spans"
    (cur.traced_ns /. cur.disarmed_ns);
  List.iter
    (fun (b : row) ->
      match List.find_opt (fun (c : row) -> c.name = b.name) cur.rows with
      | None ->
        incr failures;
        Printf.eprintf
          "FAIL: case %S present in baseline but missing from current run\n"
          b.name
      | Some c ->
        let per_node (r : row) = r.minor_per_round /. float_of_int r.n in
        gate
          (per_node c <= alloc_floor
          || per_node c <= alloc_ratio_limit *. per_node b)
          ~what:c.name "alloc %.3f w/round/node (baseline %.3f, limit %.1fx)"
          (per_node c) (per_node b) alloc_ratio_limit;
        if b.n <> c.n then ()
        else if cur.quick then
          Printf.printf "skip  %-24s par/seq ratio %.3f — quick run\n" c.name
            c.par_seq_ratio
        else
          gate
            (c.par_seq_ratio <= par_seq_ratio_limit)
            ~what:c.name "par/seq ratio %.3f (bound %.2f, baseline %.3f)"
            c.par_seq_ratio par_seq_ratio_limit b.par_seq_ratio)
    base.rows;
  !failures

let () =
  let usage () =
    prerr_endline
      "usage: check_bench.exe FILE [--against BASELINE] [--max-par-seq-ratio X]";
    exit 2
  in
  let rec parse file baseline ratio = function
    | [] -> (file, baseline, ratio)
    | "--against" :: b :: rest -> parse file (Some b) ratio rest
    | "--max-par-seq-ratio" :: v :: rest -> (
      match float_of_string_opt v with
      | Some x when x > 0.0 -> parse file baseline (Some x) rest
      | _ -> fail "--max-par-seq-ratio wants a positive number, got %S" v)
    | f :: rest when file = None && f <> "" && f.[0] <> '-' ->
      parse (Some f) baseline ratio rest
    | _ -> usage ()
  in
  match parse None None None (List.tl (Array.to_list Sys.argv)) with
  | None, _, _ -> usage ()
  | Some file, baseline, ratio ->
    let cur = load file in
    Option.iter (fun x -> max_ratio x cur) ratio;
    Printf.printf "%s: ok (%d cases, domains=%d, cores=%d)\n" file
      (List.length cur.rows) cur.domains cur.cores;
    Option.iter
      (fun path ->
        let failures = against (load path) cur in
        if failures > 0 then begin
          Printf.eprintf "check_bench: %d failure(s) against %s\n" failures
            path;
          exit 1
        end;
        Printf.printf "check_bench: ok against %s\n" path)
      baseline
