(* Validate a BENCH_parallel.json against the repro-bench-parallel/7
   schema. CI's bench-smoke and frontier-1m jobs (and the runtest smoke
   rule) run this right after `main.exe --json --quick`, so a malformed
   bench file fails the pipeline instead of silently corrupting the perf
   trajectory.

   Beyond shape, this also checks the one semantic invariant the bench
   can prove about the frontier engine: on the flood-replay leg every
   node halts right after its declared radius, so the per-round
   active_nodes column must be monotonically non-increasing. A violation
   means the engine re-activated a halted node — a frontier-contract
   break (DESIGN.md §13), not a perf regression.

   With --max-par-seq-ratio X, additionally fail if any case's
   par_seq_ratio exceeds X — the dispatch-smoke CI job's absolute bound
   on parallel overhead (null ratios pass: no estimate is not a
   regression).

   Usage: check_bench.exe [FILE] [--max-par-seq-ratio X]
   (default FILE: BENCH_parallel.json) *)

module J = Repro_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let get name j = match J.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let as_int name j = match J.to_int (get name j) with
  | Some v -> v
  | None -> fail "field %S is not an integer" name

let as_bool name j = match J.to_bool (get name j) with
  | Some v -> v
  | None -> fail "field %S is not a boolean" name

let as_str name j = match J.to_str (get name j) with
  | Some v -> v
  | None -> fail "field %S is not a string" name

(* seq/par estimates and the derived speedup/ratio columns may be null
   (bechamel yielded no estimate); anything else must be a number *)
let check_num_or_null ~ctx name j =
  match get name j with
  | J.Null -> ()
  | v -> (
    match J.to_float v with
    | Some _ -> ()
    | None -> fail "%s: field %S is neither a number nor null" ctx name)

(* the per-round frontier columns: four equal-length arrays, counts
   non-negative, and on the replay leg active_nodes non-increasing *)
let check_frontier ~ctx ~name fr =
  let arr fname =
    match J.to_list (get fname fr) with
    | Some l -> l
    | None -> fail "%s (%s): frontier field %S is not an array" ctx name fname
  in
  let ints fname =
    List.mapi
      (fun i v ->
        match J.to_int v with
        | Some x -> x
        | None ->
          fail "%s (%s): frontier %S[%d] is not an integer" ctx name fname i)
      (arr fname)
  in
  let active = ints "active_nodes" in
  let edges = ints "frontier_edges" in
  let ns = ints "round_ns" in
  let dense =
    List.mapi
      (fun i v ->
        match J.to_bool v with
        | Some b -> b
        | None ->
          fail "%s (%s): frontier \"dense_rounds\"[%d] is not a boolean" ctx
            name i)
      (arr "dense_rounds")
  in
  let rounds = List.length active in
  if rounds = 0 then fail "%s (%s): empty frontier columns" ctx name;
  if
    List.length edges <> rounds
    || List.length dense <> rounds
    || List.length ns <> rounds
  then fail "%s (%s): frontier columns have mismatched lengths" ctx name;
  List.iteri
    (fun i v ->
      if v < 0 then fail "%s (%s): negative active_nodes[%d]" ctx name i)
    active;
  List.iteri
    (fun i v ->
      if v < 0 then fail "%s (%s): negative frontier_edges[%d]" ctx name i)
    edges;
  if name = "frontier-replay-1m" then
    ignore
      (List.fold_left
         (fun (i, prev) v ->
           if v > prev then
             fail
               "%s (%s): active_nodes[%d] = %d rose above %d — the replay \
                flood re-activated halted nodes"
               ctx name i v prev;
           (i + 1, v))
         (0, max_int) active)

let () =
  let file = ref "BENCH_parallel.json" in
  let max_ratio = ref None in
  let rec parse = function
    | [] -> ()
    | "--max-par-seq-ratio" :: v :: rest -> (
      match float_of_string_opt v with
      | Some x when x > 0.0 ->
        max_ratio := Some x;
        parse rest
      | Some _ | None -> fail "--max-par-seq-ratio wants a positive number, got %S" v)
    | [ "--max-par-seq-ratio" ] -> fail "--max-par-seq-ratio needs a value"
    | f :: rest ->
      file := f;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let file = !file in
  let contents =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" file e
  in
  let j = match J.of_string contents with
    | Ok j -> j
    | Error e -> fail "%s: parse error: %s" file e
  in
  (* the schema is closed: an unknown top-level key means the writer and
     this checker have drifted apart, which must fail loudly rather than
     let unvalidated data into the perf trajectory *)
  let allowed = [ "schema"; "domains"; "cores"; "quick"; "serve"; "results" ] in
  (match j with
  | J.Obj fields ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k allowed) then
          fail "unknown top-level key %S (allowed: %s)" k
            (String.concat ", " allowed))
      fields
  | _ -> fail "top level is not a JSON object");
  let schema = as_str "schema" j in
  if schema <> "repro-bench-parallel/7" then
    fail "unexpected schema %S (want repro-bench-parallel/7)" schema;
  (* the serve leg (schema /5): cold-vs-warm over the reply cache plus the
     traced-vs-disarmed span pair. Closed like the top level, counts
     consistent with one cold pass of the mix *)
  (let sv = get "serve" j in
   (match sv with
   | J.Obj fields ->
     let sv_allowed =
       [
         "mix"; "requests"; "cold_ns_per_req"; "warm_ns_per_req"; "cold_rps";
         "warm_rps"; "warm_cold_ratio"; "reply_cache_hits"; "reply_cache_misses";
         "span_n"; "span_requests"; "disarmed_ns_per_req"; "traced_ns_per_req";
         "span_overhead_ratio";
       ]
     in
     List.iter
       (fun (k, _) ->
         if not (List.mem k sv_allowed) then
           fail "unknown \"serve\" key %S (allowed: %s)" k
             (String.concat ", " sv_allowed))
       fields
   | _ -> fail "field \"serve\" is not a JSON object");
   if as_str "mix" sv = "" then fail "serve: empty mix name";
   let requests = as_int "requests" sv in
   if requests < 1 then fail "serve: requests = %d, want >= 1" requests;
   let pos name =
     match J.to_float (get name sv) with
     | Some v when v > 0.0 -> v
     | Some v -> fail "serve: %s = %g, want > 0" name v
     | None -> fail "serve: field %S is not a number" name
   in
   let cold = pos "cold_ns_per_req" and warm = pos "warm_ns_per_req" in
   let ratio = pos "warm_cold_ratio" in
   ignore (pos "cold_rps");
   ignore (pos "warm_rps");
   if abs_float (ratio -. (cold /. warm)) > 0.01 *. ratio then
     fail "serve: warm_cold_ratio %g inconsistent with cold/warm %g" ratio
       (cold /. warm);
   let hits = as_int "reply_cache_hits" sv in
   let misses = as_int "reply_cache_misses" sv in
   (* the cold pass misses on every distinct request, the warm passes hit *)
   if misses < requests then
     fail "serve: %d reply-cache misses for a %d-request cold pass" misses
       requests;
   if hits < requests then
     fail "serve: %d reply-cache hits — the warm passes never hit" hits;
   (* the span-overhead pair: fresh-seed solves, disarmed vs traced *)
   let span_n = as_int "span_n" sv in
   if span_n < 1 then fail "serve: span_n = %d, want >= 1" span_n;
   let span_reqs = as_int "span_requests" sv in
   if span_reqs < 1 then fail "serve: span_requests = %d, want >= 1" span_reqs;
   let disarmed = pos "disarmed_ns_per_req" in
   let traced = pos "traced_ns_per_req" in
   let span_ratio = pos "span_overhead_ratio" in
   if abs_float (span_ratio -. (traced /. disarmed)) > 0.01 *. span_ratio then
     fail "serve: span_overhead_ratio %g inconsistent with traced/disarmed %g"
       span_ratio
       (traced /. disarmed));
  let domains = as_int "domains" j in
  if domains < 1 then fail "domains = %d, want >= 1" domains;
  let cores = as_int "cores" j in
  if cores < 1 then fail "cores = %d, want >= 1" cores;
  ignore (as_bool "quick" j);
  let results = match J.to_list (get "results" j) with
    | Some l -> l
    | None -> fail "field \"results\" is not an array"
  in
  if results = [] then fail "empty \"results\" array";
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun i r ->
      let ctx = Printf.sprintf "results[%d]" i in
      let name = as_str "name" r in
      if name = "" then fail "%s: empty case name" ctx;
      if Hashtbl.mem seen name then fail "%s: duplicate case name %S" ctx name;
      Hashtbl.replace seen name ();
      let n = as_int "n" r in
      if n <= 0 then fail "%s (%s): n = %d, want > 0" ctx name n;
      let rounds = as_int "rounds" r in
      if rounds < 1 then fail "%s (%s): rounds = %d, want >= 1" ctx name rounds;
      check_num_or_null ~ctx "seq_ns_per_run" r;
      check_num_or_null ~ctx "par_ns_per_run" r;
      check_num_or_null ~ctx "speedup" r;
      check_num_or_null ~ctx "par_seq_ratio" r;
      (* the allocation columns are measured directly (Gc deltas), never
         null; minor words cannot be negative *)
      let as_num fname =
        match J.to_float (get fname r) with
        | Some v -> v
        | None -> fail "%s (%s): field %S is not a number" ctx name fname
      in
      if as_num "minor_words_per_round" < 0.0 then
        fail "%s (%s): negative minor_words_per_round" ctx name;
      ignore (as_num "promoted_words_per_round");
      (* dispatch economics (schema /7): dispatch_ns is measured, never
         null; 0 is the honest value on a host where the cutoff keeps
         every loop inline. grain is null exactly when nothing
         dispatched, else a positive observed ns/index *)
      let disp = as_int "dispatch_ns" r in
      if disp < 0 then fail "%s (%s): negative dispatch_ns" ctx name;
      (match get "grain" r with
      | J.Null -> ()
      | v -> (
        match J.to_float v with
        | Some g when g > 0.0 -> ()
        | Some g -> fail "%s (%s): grain = %g, want > 0 or null" ctx name g
        | None -> fail "%s (%s): grain is neither a number nor null" ctx name));
      (match !max_ratio with
      | None -> ()
      | Some x -> (
        match J.to_float (get "par_seq_ratio" r) with
        | Some ratio when ratio > x ->
          fail "%s (%s): par_seq_ratio %.3f above the --max-par-seq-ratio %.3f \
                bound"
            ctx name ratio x
        | Some _ | None -> ()));
      match J.member "frontier" r with
      | None -> ()
      | Some fr -> check_frontier ~ctx ~name fr)
    results;
  (* the telemetry overhead story needs all three dcheck legs: gated-off
     baseline, live trace, and locality certificate *)
  if Hashtbl.mem seen "dcheck-so-3k" then begin
    if not (Hashtbl.mem seen "dcheck-so-3k-traced") then
      fail "dcheck-so-3k present without its dcheck-so-3k-traced leg";
    if not (Hashtbl.mem seen "dcheck-so-3k-audited") then
      fail "dcheck-so-3k present without its dcheck-so-3k-audited leg"
  end;
  (* the scaling evidence needs both 1M legs, with their columns: a bench
     file that silently dropped them would hide a frontier regression *)
  List.iter
    (fun leg ->
      if not (Hashtbl.mem seen leg) then fail "missing required case %S" leg)
    [ "frontier-wave-1m"; "frontier-replay-1m" ];
  List.iter
    (fun r ->
      let name = as_str "name" r in
      if
        (name = "frontier-wave-1m" || name = "frontier-replay-1m")
        && J.member "frontier" r = None
      then fail "case %S has no \"frontier\" columns" name)
    results;
  Printf.printf "%s: ok (%d cases, domains=%d, cores=%d)\n" file
    (List.length results) domains cores
