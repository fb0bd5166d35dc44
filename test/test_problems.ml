(* Tests for the concrete LCLs: sinkless orientation (the paper's base
   problem), (Δ+1)-coloring, MIS, and the trivial problem. *)

module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Labeling = Repro_lcl.Labeling
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module SO = Repro_problems.Sinkless_orientation
module Coloring = Repro_problems.Coloring
module Mis = Repro_problems.Mis
module Luby = Repro_problems.Luby
module Trivial = Repro_problems.Trivial
module Problem = Core.Problem
module Fit = Repro_stats.Fit
module Pool = Repro_local.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* sinkless orientation: the checker *)

let test_so_checker_accepts_cycle () =
  let g = Gen.cycle 5 in
  (* orient the cycle consistently: side 0 out, side 1 in *)
  let out =
    Labeling.init g ~v:(fun _ -> ()) ~e:(fun _ -> ())
      ~b:(fun h -> if h mod 2 = 0 then SO.Out else SO.In)
  in
  check "valid" true (SO.is_valid g out)

let test_so_checker_rejects_sink () =
  let g = Gen.complete 4 in
  (* all edges point toward node 3 except... make node 0 a sink: all its
     edges incoming *)
  let out =
    Labeling.init g ~v:(fun _ -> ()) ~e:(fun _ -> ())
      ~b:(fun h ->
        let v = G.half_node g h in
        if v = 0 then SO.In else if G.half_node g (G.mate h) = 0 then SO.Out
        else if h mod 2 = 0 then SO.Out
        else SO.In)
  in
  check "invalid" false (SO.is_valid g out);
  check_int "one sink" 1 (SO.count_sinks g out)

let test_so_checker_rejects_inconsistent_edge () =
  let g = Gen.cycle 4 in
  let out = Labeling.const g ~v:() ~e:() ~b:SO.Out in
  (* both sides Out: edge constraint fails everywhere *)
  check "invalid" false (SO.is_valid g out)

let test_so_low_degree_exempt () =
  let g = Gen.path 4 in
  (* all edges oriented the same way: endpoint of the path is a "sink" but
     has degree 1, hence exempt *)
  let out =
    Labeling.init g ~v:(fun _ -> ()) ~e:(fun _ -> ())
      ~b:(fun h -> if h mod 2 = 0 then SO.Out else SO.In)
  in
  check "valid" true (SO.is_valid g out);
  check_int "no deg-3 sinks" 0 (SO.count_sinks g out)

let test_so_self_loop_is_out () =
  let g = G.of_edges ~n:1 [ (0, 0); (0, 0); (0, 0) ] in
  (* degree 6 node, three self-loops: one half of each loop is Out *)
  let out =
    Labeling.init g ~v:(fun _ -> ()) ~e:(fun _ -> ())
      ~b:(fun h -> if h mod 2 = 0 then SO.Out else SO.In)
  in
  check "valid" true (SO.is_valid g out)

(* ------------------------------------------------------------------ *)
(* sinkless orientation: the solvers *)

let families rng =
  [
    ("3-regular-small", SO.hard_instance rng ~n:50);
    ("3-regular-large", SO.hard_instance rng ~n:2000);
    ("tree-of-cycles", Gen.tree_of_cycles ~depth:5 ~cycle_len:7);
    ("prism", Gen.prism 30);
    ("complete", Gen.complete 6);
    ("path", Gen.path 20);
    ("star", Gen.star 9);
    ("cycle", Gen.cycle 17);
    ("single self-loop", G.of_edges ~n:1 [ (0, 0) ]);
    ("parallel pair", G.of_edges ~n:2 [ (0, 1); (0, 1); (0, 1) ]);
    ("isolated nodes", Gen.empty 5);
    ( "mixed components",
      Gen.disjoint_union
        [ Gen.prism 5; Gen.path 4; Gen.empty 2; Gen.complete 4 ] );
    ("grid", Gen.grid 6 6);
    ("torus", Gen.torus 5 5);
    ("binary tree", Gen.balanced_tree ~arity:2 ~height:4);
    ("4-regular", Gen.random_regular rng ~n:100 ~d:4);
  ]

let test_so_det_all_families () =
  let rng = Random.State.make [| 17 |] in
  List.iter
    (fun (name, g) ->
      let inst = Instance.create g in
      let out, _ = SO.solve_deterministic inst in
      check ("det " ^ name) true (SO.is_valid g out))
    (families rng)

let test_so_rand_all_families () =
  let rng = Random.State.make [| 18 |] in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let inst = Instance.create ~seed g in
          let out, _ = SO.solve_randomized inst in
          check (Printf.sprintf "rand %s seed %d" name seed) true
            (SO.is_valid g out))
        [ 0; 1; 2 ])
    (families rng)

let test_so_det_adversarial_ids () =
  let rng = Random.State.make [| 19 |] in
  let g = SO.hard_instance rng ~n:200 in
  let inst = Instance.create ~ids:(Repro_local.Ids.adversarial_bfs g) g in
  let out, _ = SO.solve_deterministic inst in
  check "valid under adversarial ids" true (SO.is_valid g out)

let test_so_det_rounds_grow () =
  (* deterministic rounds grow with n on random 3-regular graphs *)
  let rng = Random.State.make [| 20 |] in
  let rounds n =
    let g = SO.hard_instance rng ~n in
    let inst = Instance.create g in
    let _, m = SO.solve_deterministic inst in
    Meter.max_radius m
  in
  let r1 = rounds 100 and r2 = rounds 10000 in
  check "grows" true (r2 > r1)

let test_so_rand_beats_det () =
  let rng = Random.State.make [| 21 |] in
  let g = SO.hard_instance rng ~n:20000 in
  let inst = Instance.create ~seed:5 g in
  let _, md = SO.solve_deterministic inst in
  let _, mr = SO.solve_randomized inst in
  check "rand much faster" true
    (Meter.max_radius mr * 3 < Meter.max_radius md)

let test_so_tree_of_cycles_local () =
  (* on tree-of-cycles the deterministic solver is local: rounds are
     bounded by the cycle length, far below the diameter *)
  let g = Gen.tree_of_cycles ~depth:7 ~cycle_len:9 in
  let inst = Instance.create g in
  let out, m = SO.solve_deterministic inst in
  check "valid" true (SO.is_valid g out);
  check "rounds ~ cycle length" true (Meter.max_radius m <= 20);
  check "well below diameter" true
    (Meter.max_radius m * 3 < Repro_graph.Traversal.diameter g)

let prop_so_det_valid =
  QCheck.Test.make ~name:"SO det solver valid on random multigraphs"
    ~count:60
    QCheck.(pair (int_range 4 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.add_random_noise rng (Gen.random_regular rng ~n:(2 * (n / 2)) ~d:3) ~extra_edges:(n / 4) in
      let inst = Instance.create g in
      let out, _ = SO.solve_deterministic inst in
      SO.is_valid g out)

let prop_so_rand_valid =
  QCheck.Test.make ~name:"SO rand solver valid on random multigraphs"
    ~count:60
    QCheck.(pair (int_range 4 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed + 1 |] in
      let g = Gen.add_random_noise rng (Gen.random_regular rng ~n:(2 * (n / 2)) ~d:3) ~extra_edges:(n / 4) in
      let inst = Instance.create ~seed g in
      let out, _ = SO.solve_randomized inst in
      SO.is_valid g out)

let prop_so_checker_catches_flip =
  QCheck.Test.make ~name:"flipping one edge of a tight solution is caught"
    ~count:60
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      (* on a 3-regular graph where every node has exactly one out-edge
         (a functional orientation), flipping any edge creates a sink *)
      let g = Gen.cycle 9 in
      ignore rng;
      let out =
        Labeling.init g ~v:(fun _ -> ()) ~e:(fun _ -> ())
          ~b:(fun h -> if h mod 2 = 0 then SO.Out else SO.In)
      in
      (* cycles are degree-2, exempt; use them to check edge-consistency
         violations instead *)
      let e = seed mod G.m g in
      out.Labeling.b.(2 * e) <- SO.In;
      (* now both sides In *)
      not (SO.is_valid g out))

(* ------------------------------------------------------------------ *)
(* coloring *)

let coloring_families rng =
  [
    ("cycle", Gen.cycle 100);
    ("path", Gen.path 50);
    ("3-regular simple", Gen.random_simple_regular rng ~n:100 ~d:3);
    ("complete", Gen.complete 5);
    ("star", Gen.star 10);
    ("grid", Gen.grid 7 9);
    ("binary tree", Gen.balanced_tree ~arity:2 ~height:5);
    ("disconnected", Gen.disjoint_union [ Gen.cycle 4; Gen.path 3; Gen.empty 2 ]);
    ("parallel edges", G.of_edges ~n:3 [ (0, 1); (0, 1); (1, 2) ]);
  ]

let test_coloring_all_families () =
  let rng = Random.State.make [| 22 |] in
  List.iter
    (fun (name, g) ->
      let inst = Instance.create g in
      let out, _ = Coloring.solve inst in
      check ("coloring " ^ name) true (Coloring.is_valid g out))
    (coloring_families rng)

let test_coloring_rejects_self_loop () =
  let g = G.of_edges ~n:2 [ (0, 1); (1, 1) ] in
  check "raises" true
    (try
       ignore (Coloring.solve (Instance.create g));
       false
     with Invalid_argument _ -> true)

let test_coloring_flat_rounds () =
  let rng = Random.State.make [| 23 |] in
  let rounds n =
    let g = Gen.random_simple_regular rng ~n ~d:3 in
    let inst = Instance.create g in
    let _, m = Coloring.solve inst in
    Meter.max_radius m
  in
  let r1 = rounds 100 and r2 = rounds 5000 in
  check "flat in n" true (abs (r2 - r1) <= 3)

let test_coloring_checker_rejects () =
  let g = Gen.cycle 4 in
  let out = Labeling.const g ~v:0 ~e:() ~b:() in
  check "monochromatic rejected" false (Coloring.is_valid g out)

let test_log_star () =
  check_int "log* 2" 1 (Coloring.rounds_lower_estimate 2);
  check_int "log* 16" 3 (Coloring.rounds_lower_estimate 16);
  check "log* 10^6 small" true (Coloring.rounds_lower_estimate 1_000_000 <= 5)

let prop_coloring_valid =
  QCheck.Test.make ~name:"coloring valid on random simple graphs" ~count:50
    QCheck.(pair (int_range 4 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_simple_regular rng ~n:(2 * (n / 2)) ~d:3 in
      let ids = Repro_local.Ids.spread rng (G.n g) in
      let inst = Instance.create ~ids g in
      let out, _ = Coloring.solve inst in
      Coloring.is_valid g out)

(* ------------------------------------------------------------------ *)
(* MIS *)

let test_mis_families () =
  let rng = Random.State.make [| 24 |] in
  List.iter
    (fun (name, g) ->
      let inst = Instance.create g in
      let out, _ = Mis.solve inst in
      check ("mis " ^ name) true (Mis.is_valid g out))
    (coloring_families rng)

let test_mis_rejects_adjacent_members () =
  let g = Gen.path 2 in
  let out = Mis.of_members g [| true; true |] in
  check "adjacent members rejected" false (Mis.is_valid g out)

let test_mis_rejects_non_maximal () =
  let g = Gen.path 3 in
  let out = Mis.of_members g [| false; false; false |] in
  check "empty set rejected" false (Mis.is_valid g out)

let test_mis_isolated_must_join () =
  let g = Gen.empty 2 in
  check "isolated out rejected" false (Mis.is_valid g (Mis.of_members g [| true; false |]));
  check "isolated in accepted" true (Mis.is_valid g (Mis.of_members g [| true; true |]))

let test_mis_middle_of_path () =
  let g = Gen.path 3 in
  check "middle alone is maximal" true
    (Mis.is_valid g (Mis.of_members g [| false; true; false |]));
  check "endpoints are maximal" true
    (Mis.is_valid g (Mis.of_members g [| true; false; true |]))

let prop_mis_valid =
  QCheck.Test.make ~name:"MIS valid on random simple graphs" ~count:50
    QCheck.(pair (int_range 4 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_simple_regular rng ~n:(2 * (n / 2)) ~d:3 in
      let inst = Instance.create g in
      let out, _ = Mis.solve inst in
      Mis.is_valid g out)

(* ------------------------------------------------------------------ *)
(* trivial *)

let test_trivial () =
  let g = Gen.cycle 5 in
  let inst = Instance.create g in
  let out, m = Trivial.solve inst in
  let input = Labeling.const g ~v:() ~e:() ~b:() in
  check "valid" true
    (Repro_lcl.Ne_lcl.is_valid Trivial.problem g ~input ~output:out);
  check_int "zero rounds" 0 (Meter.max_radius m)

(* ------------------------------------------------------------------ *)
(* goldens: solver outputs on a fixed 24-node instance, and catalog
   dumps, at 1/2/4 domains *)

let with_sizes f =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      List.iter
        (fun s ->
          Pool.set_size s;
          f s)
        [ 1; 2; 4 ])

(* a simple 24-node 3-regular fixture for the loop-free solvers: the
   message-passing ecc24 fixture's seed recipe, rejection-sampled to
   simplicity *)
let simple24_graph () =
  Gen.random_simple_regular (Random.State.make [| 9 |]) ~n:24 ~d:3

(* solver goldens on simple24, committed; the solvers must reproduce
   them bit-for-bit at every pool size *)
let coloring24 =
  [| 0; 2; 2; 2; 1; 1; 3; 3; 1; 1; 3; 0; 0; 1; 1; 1; 1; 0; 1; 2; 0; 0; 0; 0 |]

let coloring24_rounds = 32

let mis24 =
  [|
    true; false; false; false; false; false; false; true; false; false; false;
    true; true; false; false; false; false; true; false; false; true; true;
    true; true;
  |]

let mis24_rounds = 36

let luby24 =
  [|
    false; false; false; false; true; true; true; false; true; true; false;
    false; false; true; false; false; true; true; true; true; false; false;
    false; false;
  |]

let luby24_rounds = 4

let test_golden_solvers () =
  let inst = Instance.create (simple24_graph ()) in
  with_sizes (fun s ->
      let col, cm = Coloring.solve inst in
      check (Printf.sprintf "coloring24, %d domains" s) true
        (col.Labeling.v = coloring24);
      check_int
        (Printf.sprintf "coloring24 rounds, %d domains" s)
        coloring24_rounds (Meter.max_radius cm);
      let mis, mm = Mis.solve inst in
      check (Printf.sprintf "mis24, %d domains" s) true (mis.Labeling.v = mis24);
      check_int
        (Printf.sprintf "mis24 rounds, %d domains" s)
        mis24_rounds (Meter.max_radius mm);
      let lub, lm = Luby.solve inst in
      check (Printf.sprintf "luby24, %d domains" s) true
        (lub.Labeling.v = luby24);
      check_int
        (Printf.sprintf "luby24 rounds, %d domains" s)
        luby24_rounds (Meter.max_radius lm))

(* the dump contract: canonical solve bytes are pool-size blind *)
let test_catalog_bytes_pool_blind () =
  let run name = (Option.get (Problem.dump name)) ~seed:7 ~n:48 in
  Pool.set_size 1;
  let base = List.map run Problem.dump_names in
  with_sizes (fun s ->
      List.iter2
        (fun name (b : Problem.solved) ->
          let r = run name in
          check (Printf.sprintf "%s bytes, %d domains" name s) true
            (String.equal r.Problem.output b.Problem.output);
          check (Printf.sprintf "%s valid, %d domains" name s) true
            r.Problem.valid)
        Problem.dump_names base)

(* the names each consumer of the registry accepts *)
let test_registry_names () =
  let set = List.sort compare in
  let pin what expected got =
    Alcotest.(check (list string)) what (set expected) (set got)
  in
  pin "dump" [ "mis"; "luby-mis"; "coloring"; "flood"; "dcheck" ]
    Problem.dump_names;
  pin "solve"
    [
      "mis"; "luby-mis"; "coloring"; "flood"; "dcheck"; "so-det"; "so-rand";
      "so-wave";
    ]
    Problem.solve_names;
  pin "check" [ "so-det"; "so-rand"; "so-wave" ] Problem.check_names;
  List.iter
    (fun name -> check (name ^ " has a solver") true (Problem.sinkless name <> None))
    Problem.check_names;
  check "no solver for mis" true (Problem.sinkless "mis" = None);
  check "no dump for so-det" true (Problem.dump "so-det" = None)

(* Figure 1's order, bottom up: the landscape rows' declared classes never
   decrease along Fit.all_models *)
let test_registry_landscape_order () =
  let rank m =
    let rec go i = function
      | [] -> Alcotest.fail "model missing from Fit.all_models"
      | x :: rest -> if x = m then i else go (i + 1) rest
    in
    go 0 Fit.all_models
  in
  let rows = Problem.landscape [] in
  Alcotest.(check (list string))
    "rows"
    [ "trivial"; "coloring"; "mis"; "matching"; "so-rand"; "so-det"; "pi2-rand";
      "pi2-det"; "2-coloring" ]
    (List.map (fun (r : Problem.row) -> r.Problem.name) rows);
  ignore
    (List.fold_left
       (fun prev (r : Problem.row) ->
         let k = rank r.Problem.declared in
         check (r.Problem.name ^ " not below the row before") true (k >= prev);
         k)
       0 rows)

(* a cell draws its family at its own (seed, n): the n = 1000 column does
   not depend on which other sizes share the table *)
let test_registry_landscape_cells_size_blind () =
  let first sizes =
    List.map (fun (r : Problem.row) -> (r.Problem.name, List.hd r.Problem.cells))
      (Problem.landscape sizes)
  in
  let alone = first [ 1000 ] and shared = first [ 1000; 10000 ] in
  List.iter2
    (fun (name, a) (_, b) -> check_int (name ^ " at n = 1000") a b)
    alone shared

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_so_det_valid;
      prop_so_rand_valid;
      prop_so_checker_catches_flip;
      prop_coloring_valid;
      prop_mis_valid;
    ]

let suite =
  [
    ("SO checker accepts cycle", `Quick, test_so_checker_accepts_cycle);
    ("SO checker rejects sink", `Quick, test_so_checker_rejects_sink);
    ("SO checker rejects inconsistency", `Quick, test_so_checker_rejects_inconsistent_edge);
    ("SO low degree exempt", `Quick, test_so_low_degree_exempt);
    ("SO self-loop is out", `Quick, test_so_self_loop_is_out);
    ("SO det all families", `Quick, test_so_det_all_families);
    ("SO rand all families", `Quick, test_so_rand_all_families);
    ("SO det adversarial ids", `Quick, test_so_det_adversarial_ids);
    ("SO det rounds grow", `Slow, test_so_det_rounds_grow);
    ("SO rand beats det", `Slow, test_so_rand_beats_det);
    ("SO tree-of-cycles local", `Quick, test_so_tree_of_cycles_local);
    ("coloring all families", `Quick, test_coloring_all_families);
    ("coloring rejects self-loop", `Quick, test_coloring_rejects_self_loop);
    ("coloring flat rounds", `Slow, test_coloring_flat_rounds);
    ("coloring checker rejects", `Quick, test_coloring_checker_rejects);
    ("log star", `Quick, test_log_star);
    ("MIS families", `Quick, test_mis_families);
    ("MIS rejects adjacent", `Quick, test_mis_rejects_adjacent_members);
    ("MIS rejects non-maximal", `Quick, test_mis_rejects_non_maximal);
    ("MIS isolated must join", `Quick, test_mis_isolated_must_join);
    ("MIS middle of path", `Quick, test_mis_middle_of_path);
    ("trivial", `Quick, test_trivial);
    ("golden mis/coloring/luby24", `Quick, test_golden_solvers);
    ("catalog solve bytes pool-blind", `Quick, test_catalog_bytes_pool_blind);
    ("registry per-op names", `Quick, test_registry_names);
    ("registry landscape in Figure-1 order", `Quick, test_registry_landscape_order);
    ("registry landscape cells size-blind", `Slow,
      test_registry_landscape_cells_size_blind);
  ]
  @ qcheck_tests
