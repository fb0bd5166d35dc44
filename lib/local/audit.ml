module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Prov = Repro_obs.Provenance
module Obs = Repro_obs

let counter = Obs.Registry.counter Obs.Registry.default
let m_certified = counter "local.audit.certified_runs"
let m_violations = counter "local.audit.violations"

let certify_run ?(label = "") inst ~declared f =
  Prov.start ();
  let x =
    match f () with
    | x -> x
    | exception e ->
      Prov.abort ();
      raise e
  in
  match Prov.take () with
  | None ->
    failwith "Audit.certify_run: no engine run submitted an audit"
  | Some audit ->
    let g = inst.Instance.graph in
    let cert =
      Prov.certify ~label ~declared ~dist_from:(fun v -> T.bfs g v) audit
    in
    Obs.Counter.incr m_certified;
    Obs.Counter.add m_violations (List.length cert.Prov.c_violations);
    (* a live trace gets the machine-readable certificate inline, so a
       --trace file of an audited run is self-contained for
       `repro trace-report` *)
    if Obs.Trace.active () then List.iter Obs.Trace.emit (Prov.to_events cert);
    (x, cert)

(* The full-information flood: state is the node's own index, every
   message is the sender's index (the influence sets do the actual
   information accounting at the engine level), and node [v] halts after
   [rounds v] receive phases — i.e. with exactly its radius-[rounds v]
   ball delivered. [actual] beyond [declared] models a non-local
   algorithm for the violation path. *)
let flood_algorithm ~actual : (int, int, int) Message_passing.algorithm =
  {
    Message_passing.init = (fun _ v -> v);
    send = (fun v ~round:_ ~port:_ -> v);
    receive =
      (fun v ~round _msgs ->
        if round + 1 >= actual v then Either.Right v else Either.Left v);
  }

let run ?label inst ~declared ~actual =
  let bound v = max 1 (declared v) in
  let actual v = max (bound v) (actual v) in
  snd
    (certify_run ?label inst ~declared:bound (fun () ->
         ignore (Frontier.run inst (flood_algorithm ~actual))))

let run_flood ?label inst ~declared =
  run ?label inst ~declared ~actual:(fun v -> max 1 (declared v))

let non_local_flood ?label inst ~declared ~overshoot =
  run ?label inst ~declared ~actual:(fun v -> max 1 (declared v) + overshoot)
