module Json = Repro_obs.Json

type t = { t_name : string; t_doc : string; t_prop : packed }
and packed = P : 'a Prop.t -> packed

let show_of pp x = Format.asprintf "%a" pp x

(* cases pair a structure recipe with an explicit instance seed, so the
   whole case — graph, ids, random bits — replays from the case seed *)
let with_seed gen = Gen.pair gen (Gen.int_range 0 9999)

let pp_with_seed pp fmt (r, s) = Format.fprintf fmt "%a seed=%d" pp r s

let graph_prop ~name ~shape ?(max_n = 40) ?(max_deg = 4) oracle =
  Prop.make ~name
    ~size_of:(fun (r, _) -> Gen_graph.nodes_of r)
    ~show:(show_of (pp_with_seed Gen_graph.pp_recipe))
    (with_seed (Gen_graph.gen ~max_n ~max_deg shape))
    oracle

let so_prop = graph_prop ~name:"so" ~shape:Gen_graph.Any Oracle.so_solvers

let colorful_prop =
  graph_prop ~name:"colorful" ~shape:Gen_graph.Simple Oracle.colorful

let two_coloring_prop =
  graph_prop ~name:"two-coloring" ~shape:Gen_graph.Bipartite Oracle.two_coloring

let dcheck_prop =
  Prop.make ~name:"dcheck"
    ~size_of:(fun (r, _, _) -> Gen_graph.nodes_of r)
    ~show:(fun (r, s, m) ->
      Format.asprintf "%a seed=%d mutate=%s" Gen_graph.pp_recipe r s
        (match m with None -> "no" | Some h -> string_of_int h))
    Gen.(
      let* r = Gen_graph.gen ~max_n:40 ~max_deg:4 Gen_graph.Any in
      let* s = int_range 0 9999 in
      let* m = opt (int_range 0 499) in
      return (r, s, m))
    Oracle.dcheck

let engines_prop =
  graph_prop ~name:"engines" ~shape:Gen_graph.Any ~max_n:30 Oracle.engines

let engine_vs_boxed_prop =
  graph_prop ~name:"engine-vs-boxed" ~shape:Gen_graph.Any ~max_n:30
    Oracle.engine_vs_boxed

let gadget_prop =
  Prop.make ~name:"gadget" ~size_of:Gen_gadget.nodes_of
    ~show:(show_of Gen_gadget.pp_case)
    (Gen_gadget.gen ~max_delta:4 ~max_height:4 ~corrupted:None ())
    Oracle.gadget

let padding_prop =
  Prop.make ~name:"padding"
    ~size_of:(fun (_, target, _) -> target)
    ~show:(fun (l, t, s) -> Printf.sprintf "{level=%d; target=%d; seed=%d}" l t s)
    Gen.(
      let* level = int_range 2 3 in
      let* target = if level >= 3 then int_range 40 90 else int_range 40 160 in
      let* s = int_range 0 9999 in
      return (level, target, s))
    Oracle.padding

let provenance_prop =
  Prop.make ~name:"provenance"
    ~size_of:(fun (r, _) -> Gen_graph.regular_nodes r)
    ~show:(show_of (pp_with_seed Gen_graph.pp_regular))
    (with_seed (Gen_graph.gen_regular ~max_n:30 ()))
    Oracle.provenance

let all =
  [
    {
      t_name = "so";
      t_doc = "sinkless orientation (det+rand) on multigraphs: solver vs sweep vs node-centric reference";
      t_prop = P so_prop;
    };
    {
      t_name = "colorful";
      t_doc = "coloring/MIS/Luby-MIS/matching on simple graphs: solver vs sweep vs node-centric reference";
      t_prop = P colorful_prop;
    };
    {
      t_name = "two-coloring";
      t_doc = "2-coloring on bipartite recipes: solver vs sweep vs node-centric reference";
      t_prop = P two_coloring_prop;
    };
    {
      t_name = "dcheck";
      t_doc = "per-node Distributed_check accepts = node-centric reference verdicts on (optionally corrupted) SO outputs and coloring/MIS/matching labelings";
      t_prop = P dcheck_prop;
    };
    {
      t_name = "engines";
      t_doc = "pool-size differential: 1 = 2 = 4 domains, outputs and meters";
      t_prop = P engines_prop;
    };
    {
      t_name = "engine-vs-boxed";
      t_doc = "frontier engine vs the boxed reference engine: byte-identical outputs, rounds and certificates at every density threshold and 1/2/4 domains";
      t_prop = P engine_vs_boxed_prop;
    };
    {
      t_name = "gadget";
      t_doc = "gadget Check vs Verifier+Psi vs Ne_psi; corrupted gadgets localize the fault";
      t_prop = P gadget_prop;
    };
    {
      t_name = "padding";
      t_doc = "padded Pi^level hard instances: both solvers validate";
      t_prop = P padding_prop;
    };
    {
      t_name = "provenance";
      t_doc = "locality certificates on fuzzed runs (solver flood + audited checker)";
      t_prop = P provenance_prop;
    };
  ]

let names = List.map (fun t -> t.t_name) all

let find name = List.find_opt (fun t -> t.t_name = name) all

let run t ~count ~seed = match t.t_prop with P p -> Prop.run ~count ~seed p

let json_of_failure (f : Prop.failure) =
  Json.Obj
    [
      ("case", Json.String f.Prop.f_case);
      ("reason", Json.String f.Prop.f_reason);
      ("index", Json.Int f.Prop.f_index);
      ("replay_seed", Json.Int f.Prop.f_replay_seed);
      ("shrink_steps", Json.Int f.Prop.f_shrink_steps);
      ( "size",
        match f.Prop.f_size with Some s -> Json.Int s | None -> Json.Null );
    ]

let json_of_report (r : Prop.report) =
  Json.Obj
    ([
       ("name", Json.String r.Prop.r_name);
       ("cases", Json.Int r.Prop.r_count);
       ("ok", Json.Bool (r.Prop.r_failure = None));
     ]
    @
    match r.Prop.r_failure with
    | None -> []
    | Some f -> [ ("failure", json_of_failure f) ])

let json_summary ~seed ~count reports =
  Json.Obj
    [
      ("schema", Json.String "repro-fuzz/1");
      ("seed", Json.Int seed);
      ("count", Json.Int count);
      ("ok", Json.Bool (List.for_all (fun r -> r.Prop.r_failure = None) reports));
      ("targets", Json.List (List.map json_of_report reports));
    ]
