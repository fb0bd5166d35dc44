(* Compare a freshly measured BENCH_parallel.json against the committed
   baseline and gate the perf trajectory.

   Usage: compare_bench.exe BASELINE CURRENT

   Hard failures (exit 1):
     - either file fails to parse or is not repro-bench-parallel/7
     - the current serve leg's warm/cold ratio falls below 5x: the reply
       cache exists to make a warm gadget-family-heavy mix at least that
       much faster than its cold pass, and both numbers come from the
       same host seconds apart, so the ratio is stable enough to gate
     - a baseline case is missing from the current run (the trajectory
       would silently lose a data point)
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
       gadget-check-h8, verifier-h8) therefore run at
       height 8 under --quick too.
     - the serve leg's disarmed span instrumentation costs more than 3%
       over the committed baseline, at equal span workload only
       (baseline and current must have measured the same span_n; a
       --quick run against the full-size baseline is skipped, not
       compared). The disarmed path is the one every untraced request
       pays, so its cost is gated directly; the traced/disarmed
       overhead ratio is printed for information but never gated — a
       slower disarmed denominator would shrink it, moving it the
       wrong way exactly when the regression happens.
     - a case's par/seq overhead ratio exceeds 1.15 — an absolute
       bound, not baseline-relative: the dispatch rule exists to
       keep parallel execution within 15% of sequential even when it
       cannot win, so any ratio above that is a dispatch-policy bug
       regardless of what the previous PR measured. The ratio
       (par_ns / seq_ns) divides out the machine's absolute speed —
       both numerators come from the same host seconds apart. The gate
       engages only for full-size current runs at a baseline-matching n
       (a --quick run's 0.05s quota is noise-dominated — quick ratios
       swing ±25% on an idle host — and across different n the
       dispatch/workload balance changes, so both are skipped, not
       compared).

   Wall-clock is advisory only: timings on shared CI runners are too
   noisy to gate on, so seq-time ratios above the advisory threshold are
   printed as warnings but never fail the run. Allocation counts are
   deterministic, which is what makes them gateable. *)

module J = Repro_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

(* a regression must be this many times the baseline to hard-fail;
   allocation below this floor (words per round per node) is noise from
   one-time setup and never gated *)
let alloc_ratio_limit = 2.0
let alloc_floor = 0.05
let par_seq_ratio_limit = 1.15
let wallclock_advisory_ratio = 1.5
let serve_warm_ratio_floor = 5.0
let span_disarmed_limit = 1.03

type row = {
  n : int;
  seq_ns : float option;
  par_seq_ratio : float option;
  minor_per_round : float;
}

type serve = {
  warm_cold_ratio : float;
  span_n : int;
  disarmed_ns : float;
  traced_ns : float;
}

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
  let get name j =
    match J.member name j with
    | Some v -> v
    | None -> fail "%s: missing field %S" file name
  in
  (match J.to_str (get "schema" j) with
  | Some "repro-bench-parallel/7" -> ()
  | Some s -> fail "%s: schema %S (want repro-bench-parallel/7)" file s
  | None -> fail "%s: schema is not a string" file);
  let serve =
    match J.member "serve" j with
    | Some sv ->
      let num fname =
        match Option.map J.to_float (J.member fname sv) with
        | Some (Some r) -> r
        | _ -> fail "%s: serve.%s missing or not a number" file fname
      in
      {
        warm_cold_ratio = num "warm_cold_ratio";
        span_n = int_of_float (num "span_n");
        disarmed_ns = num "disarmed_ns_per_req";
        traced_ns = num "traced_ns_per_req";
      }
    | None -> fail "%s: missing \"serve\" leg" file
  in
  let quick =
    match J.to_bool (get "quick" j) with
    | Some b -> b
    | None -> fail "%s: \"quick\" is not a boolean" file
  in
  let results =
    match J.to_list (get "results" j) with
    | Some l -> l
    | None -> fail "%s: \"results\" is not an array" file
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let name =
        match J.to_str (get "name" r) with
        | Some s -> s
        | None -> fail "%s: case name is not a string" file
      in
      let num fname =
        match J.to_float (get fname r) with
        | Some v -> v
        | None -> fail "%s (%s): field %S is not a number" file name fname
      in
      let opt fname =
        match get fname r with J.Null -> None | v -> J.to_float v
      in
      let n = int_of_float (num "n") in
      Hashtbl.replace tbl name
        {
          n;
          seq_ns = opt "seq_ns_per_run";
          par_seq_ratio = opt "par_seq_ratio";
          minor_per_round = num "minor_words_per_round";
        })
    results;
  (tbl, serve, quick)

let () =
  if Array.length Sys.argv <> 3 then
    fail "usage: compare_bench.exe BASELINE CURRENT";
  let baseline, base_serve, _ = load Sys.argv.(1) in
  let current, serve, cur_quick = load Sys.argv.(2) in
  let failures = ref 0 in
  let checked = ref 0 in
  (* serve gate: an absolute floor on the current run, not a
     baseline-relative one — the 5x promise is part of the cache's
     contract, whatever the host *)
  if serve.warm_cold_ratio < serve_warm_ratio_floor then begin
    incr failures;
    Printf.eprintf "FAIL: serve warm/cold ratio %.3f below the %.1fx floor\n"
      serve.warm_cold_ratio serve_warm_ratio_floor
  end
  else
    Printf.printf "ok    %-24s warm/cold ratio %.3f (floor %.1fx)\n" "serve"
      serve.warm_cold_ratio serve_warm_ratio_floor;
  (* span-instrumentation gate: the disarmed per-request cost may not
     creep more than 3% over the baseline. Both sides must have measured
     the same instance size — a --quick current against the full-size
     committed baseline is incomparable and skipped, like the par/seq
     gate at unequal n *)
  if serve.span_n = base_serve.span_n && base_serve.disarmed_ns > 0.0 then begin
    if serve.disarmed_ns > span_disarmed_limit *. base_serve.disarmed_ns then begin
      incr failures;
      Printf.eprintf
        "FAIL: serve disarmed span cost %.0f ns/req vs baseline %.0f (> %.2fx)\n"
        serve.disarmed_ns base_serve.disarmed_ns span_disarmed_limit
    end
    else
      Printf.printf
        "ok    %-24s disarmed %.0f ns/req (baseline %.0f, limit %.2fx)\n"
        "serve spans" serve.disarmed_ns base_serve.disarmed_ns
        span_disarmed_limit
  end
  else
    Printf.printf
      "skip  %-24s span_n %d vs baseline %d — incomparable workloads\n"
      "serve spans" serve.span_n base_serve.span_n;
  Printf.printf "info  %-24s traced/disarmed overhead %.3fx\n" "serve spans"
    (serve.traced_ns /. serve.disarmed_ns);
  Hashtbl.iter
    (fun name (b : row) ->
      match Hashtbl.find_opt current name with
      | None ->
        incr failures;
        Printf.eprintf "FAIL: case %S present in baseline but missing from current run\n" name
      | Some (c : row) ->
        incr checked;
        (* allocation gate: per round per node *)
        let b_norm = b.minor_per_round /. float_of_int (max 1 b.n) in
        let c_norm = c.minor_per_round /. float_of_int (max 1 c.n) in
        if c_norm > alloc_floor && c_norm > alloc_ratio_limit *. b_norm then begin
          incr failures;
          Printf.eprintf
            "FAIL: %s: minor words/round/node %.3f vs baseline %.3f (> %.1fx)\n"
            name c_norm b_norm alloc_ratio_limit
        end
        else
          Printf.printf "ok    %-24s alloc %.3f w/round/node (baseline %.3f)\n"
            name c_norm b_norm;
        (* parallel-overhead gate: the absolute 1.15 bound on par/seq,
           for full-size runs at a baseline-matching n only (quick
           quotas are noise-dominated; across n the dispatch/workload
           balance shifts) *)
        (match (b.par_seq_ratio, c.par_seq_ratio) with
        | Some br, Some cr when b.n = c.n && not cur_quick ->
          if cr > par_seq_ratio_limit then begin
            incr failures;
            Printf.eprintf
              "FAIL: %s: par/seq ratio %.3f above the absolute %.2f bound \
               (baseline %.3f)\n"
              name cr par_seq_ratio_limit br
          end
          else
            Printf.printf
              "ok    %-24s par/seq ratio %.3f (bound %.2f, baseline %.3f)\n"
              name cr par_seq_ratio_limit br
        | Some _, Some cr when b.n = c.n ->
          Printf.printf
            "skip  %-24s par/seq ratio %.3f — quick quota, noise-dominated\n"
            name cr
        | _ -> ());
        (* wall-clock: advisory only, and only comparable at equal n *)
        (match (b.seq_ns, c.seq_ns) with
        | Some bt, Some ct
          when b.n = c.n && bt > 0.0 && ct /. bt > wallclock_advisory_ratio ->
          Printf.printf
            "WARN  %-24s seq %.0f ns vs baseline %.0f ns (advisory only)\n"
            name ct bt
        | _ -> ()))
    baseline;
  if !failures > 0 then begin
    Printf.eprintf "compare_bench: %d failure(s) across %d case(s)\n" !failures
      !checked;
    exit 1
  end;
  Printf.printf "compare_bench: ok (%d cases gated against %s)\n" !checked
    Sys.argv.(1)
