module Gen = Repro_graph.Generators
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Audit = Repro_local.Audit
module DC = Repro_lcl.Distributed_check
module SO = Sinkless_orientation

type entry = {
  a_name : string;
  a_doc : string;
  a_run : seed:int -> n:int -> Repro_obs.Provenance.certificate;
}

(* run a metered solver, then replay its measured per-node radii as an
   engine flood under the provenance auditor *)
let metered name solve inst =
  let _, m = solve inst in
  Audit.run_flood ~label:name inst ~declared:(Meter.declared m)

let hard_so seed n =
  let rng = Random.State.make [| seed |] in
  let g = SO.hard_instance rng ~n in
  Instance.create ~seed g

let simple_regular seed n =
  let rng = Random.State.make [| seed |] in
  let g = Gen.random_simple_regular rng ~n ~d:3 in
  Instance.create ~seed g

let metered_entry name doc solve inst_of =
  {
    a_name = name;
    a_doc = doc;
    a_run = (fun ~seed ~n -> metered name solve (inst_of seed n));
  }

let all =
  [
    metered_entry "so-det"
      "sinkless orientation, deterministic Θ(log n) on 3-regular"
      SO.solve_deterministic hard_so;
    metered_entry "so-rand"
      "sinkless orientation, randomized repair on 3-regular"
      SO.solve_randomized hard_so;
    metered_entry "so-wave"
      "sinkless orientation, frontier-wave randomized repair on 3-regular"
      (fun inst -> SO.solve_randomized_frontier inst)
      hard_so;
    metered_entry "coloring" "(Δ+1)-coloring, O(log* n) on simple 3-regular"
      Coloring.solve simple_regular;
    metered_entry "mis"
      "maximal independent set, O(log* n + Δ) on simple 3-regular" Mis.solve
      simple_regular;
    metered_entry "matching" "maximal matching, O(log* n) on simple 3-regular"
      Matching.solve simple_regular;
    {
      a_name = "dcheck";
      a_doc = "distributed one-round checker on an SO solution";
      a_run =
        (fun ~seed ~n ->
          let inst = hard_so seed n in
          let g = inst.Instance.graph in
          let output, _ = SO.solve_deterministic inst in
          let verdict, cert =
            DC.audited_run SO.problem inst ~input:(SO.trivial_input g)
              ~output
          in
          if not verdict.DC.all_accept then
            failwith "audit_catalog: dcheck rejected a valid SO solution";
          cert);
    };
  ]

let names = List.map (fun e -> e.a_name) all
let find name = List.find_opt (fun e -> e.a_name = name) all
