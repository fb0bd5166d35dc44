(* Tests for maximal matching and 2-coloring. *)

module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module M = Repro_problems.Matching
module TC = Repro_problems.Two_coloring

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* matching *)

let matching_families rng =
  [
    ("cycle", Gen.cycle 20);
    ("odd cycle", Gen.cycle 21);
    ("path", Gen.path 15);
    ("3-regular", Gen.random_simple_regular rng ~n:60 ~d:3);
    ("complete", Gen.complete 6);
    ("star", Gen.star 8);
    ("grid", Gen.grid 5 6);
    ("disconnected", Gen.disjoint_union [ Gen.path 4; Gen.cycle 5; Gen.empty 3 ]);
    ("parallel edges", G.of_edges ~n:3 [ (0, 1); (0, 1); (1, 2) ]);
    ("single edge", Gen.path 2);
  ]

let test_matching_families () =
  let rng = Random.State.make [| 61 |] in
  List.iter
    (fun (name, g) ->
      let out, _ = M.solve (Instance.create g) in
      check ("matching " ^ name) true (M.is_valid g out))
    (matching_families rng)

let test_matching_rejects_adjacent () =
  let g = Gen.path 3 in
  (* both edges matched: node 1 has two matched edges *)
  let out = M.of_edges g [| true; true |] in
  check "rejected" false (M.is_valid g out)

let test_matching_rejects_non_maximal () =
  let g = Gen.path 2 in
  let out = M.of_edges g [| false |] in
  check "rejected" false (M.is_valid g out)

let test_matching_accepts_perfect () =
  let g = Gen.cycle 4 in
  let out = M.of_edges g [| true; false; true; false |] in
  check "accepted" true (M.is_valid g out)

let test_matching_flat_rounds () =
  let rng = Random.State.make [| 62 |] in
  let rounds n =
    let g = Gen.random_simple_regular rng ~n ~d:3 in
    let _, m = M.solve (Instance.create g) in
    Meter.max_radius m
  in
  check "flat" true (abs (rounds 100 - rounds 3000) <= 3)

let test_matching_rejects_self_loop () =
  let g = G.of_edges ~n:1 [ (0, 0) ] in
  check "raises" true
    (try
       ignore (M.solve (Instance.create g));
       false
     with Invalid_argument _ -> true)

let prop_matching_valid =
  QCheck.Test.make ~name:"matching valid on random simple graphs" ~count:50
    QCheck.(pair (int_range 4 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_simple_regular rng ~n:(2 * (n / 2)) ~d:3 in
      let out, _ = M.solve (Instance.create g) in
      M.is_valid g out)

(* 2-coloring *)

let test_two_coloring_cycle () =
  let g = TC.hard_instance ~n:10 in
  let out, m = TC.solve (Instance.create g) in
  check "valid" true (TC.is_valid g out);
  check "global rounds" true (Meter.max_radius m >= 5)

let test_two_coloring_tree () =
  let g = Gen.balanced_tree ~arity:2 ~height:4 in
  let out, _ = TC.solve (Instance.create g) in
  check "valid" true (TC.is_valid g out)

let test_two_coloring_rejects_odd () =
  check "bipartite test" false (TC.is_bipartite (Gen.cycle 5));
  check "raises" true
    (try
       ignore (TC.solve (Instance.create (Gen.cycle 5)));
       false
     with Invalid_argument _ -> true)

let test_two_coloring_rounds_linear () =
  let rounds n =
    let g = TC.hard_instance ~n in
    let _, m = TC.solve (Instance.create g) in
    Meter.max_radius m
  in
  check_int "half of n" 50 (rounds 100);
  check_int "scales linearly" 500 (rounds 1000)

let test_two_coloring_checker () =
  let g = Gen.path 3 in
  let bad =
    Repro_lcl.Labeling.init g ~v:(fun _ -> 0) ~e:(fun _ -> ()) ~b:(fun _ -> ())
  in
  check "monochromatic rejected" false (TC.is_valid g bad)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_matching_valid ]

let suite =
  [
    ("matching families", `Quick, test_matching_families);
    ("matching rejects adjacent", `Quick, test_matching_rejects_adjacent);
    ("matching rejects non-maximal", `Quick, test_matching_rejects_non_maximal);
    ("matching accepts perfect", `Quick, test_matching_accepts_perfect);
    ("matching flat rounds", `Slow, test_matching_flat_rounds);
    ("matching rejects self-loop", `Quick, test_matching_rejects_self_loop);
    ("2-coloring cycle", `Quick, test_two_coloring_cycle);
    ("2-coloring tree", `Quick, test_two_coloring_tree);
    ("2-coloring rejects odd", `Quick, test_two_coloring_rejects_odd);
    ("2-coloring linear rounds", `Quick, test_two_coloring_rounds_linear);
    ("2-coloring checker", `Quick, test_two_coloring_checker);
  ]
  @ qcheck_tests
