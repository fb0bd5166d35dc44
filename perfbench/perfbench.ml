(* The repo benchmark. Run from the repository root:

     dune exec --root . --display quiet ./perfbench/perfbench.exe -- \
       --workload pi2-pipeline --seed 1 --seconds 25 --trace 0

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
   the last stdout line is the JSON result. --self-test runs the
   benchmark's own tests on shrunken instances. README.md in this
   directory documents every metric. *)

module Spec = Core.Padding.Spec
module H = Core.Padding.Hierarchy

let workloads = [ "pi2-pipeline"; "frontier-100k"; "serve-mix" ]

(* the workload's pool size and its report *)
let run ~workload ~quick ~seed ~seconds ~trace ~plant =
  let batch (w : Batch.t) = (w.Batch.pool, Runner.run w ~seed ~seconds ~trace ~plant) in
  match workload with
  | "pi2-pipeline" -> batch (Batch.pi2_pipeline ~quick)
  | "frontier-100k" -> batch (Batch.frontier_100k ~quick)
  | "serve-mix" -> (Serve_mix.pool, Serve_mix.run ~quick ~seed ~seconds ~trace ~plant)
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- the benchmark's own tests ---- *)

let self_test () =
  let failures = ref 0 in
  let expect name ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
    if not ok then incr failures
  in
  let metric (r : Report.t) name =
    List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.Report.metrics
  in
  (* the instrumented Π² is Hierarchy.level 2: same instance, same rounds *)
  let seed = 5 and target = 3_000 in
  let reference = Spec.run_hard (H.level 2) ~seed ~target in
  let o = Batch.pi2_once ~target ~plant:false seed in
  expect "instrumented pi2 matches Hierarchy.level 2"
    (o.Batch.nodes = reference.Spec.n
    && o.Batch.rounds_det = float_of_int reference.Spec.det_rounds
    && o.Batch.rounds_rand = float_of_int reference.Spec.rand_rounds
    && o.Batch.failures = []);
  List.iter
    (fun workload ->
      let go ~trace ~plant = snd (run ~workload ~quick:true ~seed:1 ~seconds:1 ~trace ~plant) in
      let clean = go ~trace:false ~plant:false in
      expect (workload ^ ": clean run has no failures")
        (clean.Report.failed = 0 && clean.Report.attempted > 0);
      expect (workload ^ ": every end-to-end metric is positive")
        (List.for_all (fun (_, v, _) -> v > 0. && Float.is_finite v) clean.Report.metrics);
      let traced = go ~trace:true ~plant:false in
      expect (workload ^ ": traced run has no failures") (traced.Report.failed = 0);
      expect (workload ^ ": traced run attributes time to layers")
        (match metric traced "obs.span_coverage" with Some c -> c > 0.5 | None -> false);
      if workload = "pi2-pipeline" then
        expect "pi2-pipeline: pool.jobs reads 0 at pool size 1"
          (metric traced "pool.jobs" = Some 0.);
      let planted = go ~trace:false ~plant:true in
      expect (workload ^ ": a planted bad op counts toward error_rate")
        (planted.Report.failed > 0))
    workloads;
  if !failures = 0 then print_endline "self-test: all passed"
  else Printf.printf "self-test: %d failed\n" !failures;
  exit (if !failures = 0 then 0 else 1)

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload {pi2-pipeline|frontier-100k|serve-mix} --seed N \
     --seconds S --trace {0|1}\n\
    \       perfbench.exe --self-test";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 25 and trace = ref false in
  let selftest = ref false in
  let int_arg v = match int_of_string_opt v with Some i -> i | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg v);
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := int_arg v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := int_arg v <> 0;
      parse rest
    | "--self-test" :: rest ->
      selftest := true;
      parse rest
    | a :: _ ->
      Printf.eprintf "perfbench: unknown argument %S\n" a;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !selftest then self_test ();
  match (!workload, !seed) with
  | Some w, Some seed when List.mem w workloads && !seconds > 0 ->
    let pool, r = run ~workload:w ~quick:false ~seed ~seconds:!seconds ~trace:!trace ~plant:false in
    Report.print
      ~provenance:(Report.provenance ~workload:w ~seed ~seconds:!seconds ~trace:!trace ~pool r)
      r
  | _ -> usage ()
