(* The batch measurement loop shared by pi2-pipeline and frontier-100k.

   Untraced (--trace 0): set up [setup_reps] times — pool spawn and
   calibration plus the workload's untimed warm-up, the first one timed
   from process start — then run ops back to back until [seconds] have
   passed. The ops are [instances] fresh instances, run in turn, pass
   after pass, for the whole measurement; an op's time is the fastest
   of its instance's runs. The shared host slows for tens of seconds at
   a time, and a slow stretch only lengthens a run, so the fastest of
   runs spread over the whole measurement is the instance's own cost;
   back-to-back copies would all land in the same stretch.
   Traced (--trace 1): fresh instances until the time is up, each run
   once untraced and once traced, so the overhead ratio is paired; only
   the traced copy feeds the per-layer sums. *)

module Obs = Core.Obs
module Pool = Core.Local.Pool

let setup_reps = 9
let instances = 10

(* per-op instance seeds, derived from the workload seed; warm-up ops use
   negative indices so they never repeat a timed op's instance *)
let op_seed ~seed k = Hashtbl.hash (seed, k, "perfbench")

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

(* one attempted op and the checks it failed ([] when correct) *)
let record t failures =
  t.attempted <- t.attempted + 1;
  if failures <> [] then begin
    t.failed <- t.failed + 1;
    List.iter (fun w -> if not (List.mem w t.reasons) then t.reasons <- w :: t.reasons) failures
  end

(* a failed check or an exception counts against the op; the run goes on *)
let attempt t f =
  match f () with
  | (o : Batch.outcome) ->
    record t o.Batch.failures;
    if o.Batch.failures = [] then Some o else None
  | exception e ->
    record t [ "exception: " ^ Printexc.to_string e ];
    None

let timed f =
  let t0 = Report.now () in
  let v = f () in
  (v, Report.now () -. t0)

(* one traced op: registry counters and the span recorder armed around it,
   the spans reduced into [acc] (the reduction is timed as obs work) *)
let traced_op acc f =
  Obs.Registry.reset ();
  Obs.Registry.enable ();
  let (_ : int) = Obs.Span.arm () in
  let root = Obs.Span.enter "bench.op" in
  let result = match f () with v -> Ok v | exception e -> Error e in
  Obs.Span.exit root;
  let t0 = Obs.Clock.now_ns () and m0 = Gc.minor_words () in
  let dropped = Obs.Span.dropped () in
  let spans = Obs.Span.take () in
  let counters = Obs.Registry.counters () in
  Obs.Registry.disable ();
  Layers.absorb acc (Layers.reduce spans) ~dropped;
  Layers.absorb_counters acc counters;
  acc.Layers.a_obs_ns <- acc.Layers.a_obs_ns + (Obs.Clock.now_ns () - t0);
  Layers.add acc.Layers.a_minor "obs" (int_of_float (Gc.minor_words () -. m0));
  acc.Layers.a_ops <- acc.Layers.a_ops + 1;
  match result with Ok v -> v | Error e -> raise e

let run (w : Batch.t) ~seed ~seconds ~trace ~plant =
  let t = tally () in
  (* every correct op's outcome, warm-ups included: rounds are exact
     counts, unaffected by warm-up, and more samples steady their mean *)
  let outs = ref [] in
  let setups =
    List.init setup_reps (fun i ->
        let t0 = if i = 0 then Report.process_start else Report.now () in
        Pool.shutdown ();
        Pool.set_size w.Batch.pool;
        Option.iter
          (fun o -> outs := o :: !outs)
          (attempt t (fun () -> w.Batch.warm_up (op_seed ~seed (-1 - i))));
        Report.now () -. t0)
  in
  let acc = Layers.acc () in
  let nodes = ref 0 and ratios = ref [] in
  (* one timed run of instance [k]; it starts from a collected heap, so
     the previous run's garbage is not charged to it *)
  let run_once k ~plant =
    Gc.full_major ();
    timed (fun () -> attempt t (fun () -> w.Batch.op ~plant (op_seed ~seed k)))
  in
  let t_begin = Report.now () in
  let running () = Report.now () -. t_begin < float_of_int seconds in
  (* the first pass: [instances] fresh instances, or as many as the run
     has time for when traced *)
  let first = ref [] in
  while if trace then running () else List.length !first < instances do
    let k = List.length !first in
    (* the planted fault hits the first timed run only *)
    let o, dt = run_once k ~plant:(plant && k = 0) in
    Option.iter
      (fun (o : Batch.outcome) ->
        outs := o :: !outs;
        nodes := !nodes + o.Batch.nodes)
      o;
    first := dt :: !first;
    if trace then begin
      Gc.full_major ();
      let s = op_seed ~seed k in
      let _, dt' = timed (fun () -> attempt t (fun () -> traced_op acc (fun () -> w.Batch.op ~plant:false s))) in
      ratios := (dt' /. dt) :: !ratios
    end
  done;
  (* untraced, later passes rerun the same instances in the same order
     until the time is up *)
  let runs = Array.of_list (List.rev_map (fun dt -> [ dt ]) !first) in
  let k = ref 0 in
  while (not trace) && running () do
    runs.(!k) <- snd (run_once !k ~plant:false) :: runs.(!k);
    k := (!k + 1) mod Array.length runs
  done;
  let times =
    Array.to_list
      (Array.mapi
         (fun k r ->
           let best = List.fold_left Float.min infinity r in
           Printf.eprintf "op %d: %.1f ms, fastest of %s\n" k (best *. 1e3)
             (String.concat " " (List.rev_map (fun dt -> Printf.sprintf "%.1f" (dt *. 1e3)) r));
           best)
         runs)
  in
  let ops = List.length times in
  let ms = List.map (fun s -> s *. 1e3) times in
  let busy = List.fold_left ( +. ) 0. times in
  let rounds f = Report.mean (List.map f !outs) in
  let metrics =
    if trace then
      Layers.metrics acc ~overrides:[ ("obs.trace_overhead_ratio", Report.median !ratios) ]
    else
      [
        ("setup_s", Report.median setups, "s");
        ("op_p50_ms", Report.median ms, "ms");
        (* a run's ops vary by instance and host speed, not by a tail
           worth a p99: the batch workloads report their median here *)
        ("op_p99_ms", Report.median ms, "ms");
        ("nodes_per_s", float_of_int !nodes /. busy, "1/s");
        ("requests_per_s", float_of_int ops /. busy, "1/s");
        ("rounds_det", rounds (fun o -> o.Batch.rounds_det), "rounds");
        ("rounds_rand", rounds (fun o -> o.Batch.rounds_rand), "rounds");
        ("peak_rss_mb", Report.peak_rss_mb (), "MB");
      ]
  in
  let notes =
    if not trace then []
    else
      [
        "layers by self time per op: "
        ^ String.concat ", "
            (List.map (fun (l, v) -> Printf.sprintf "%s %.1f ms" l v) (Layers.top_layers acc 3));
        (if w.Batch.pool > 1 then
           "minor_kw: dispatching domain only (Gc counters are per domain)"
         else "minor_kw: all allocation (pool size 1, one domain)");
      ]
  in
  {
    Report.attempted = t.attempted;
    failed = t.failed;
    failures = t.reasons;
    ops;
    metrics;
    notes;
  }
