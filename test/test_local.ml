(* Tests for the LOCAL-model simulator: identifiers, randomness, meters,
   ball views, instances. *)

module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Ids = Repro_local.Ids
module Randomness = Repro_local.Randomness
module Meter = Repro_local.Meter
module Ball = Repro_local.Ball
module Instance = Repro_local.Instance

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ids *)

let test_ids_sequential () =
  let ids = Ids.sequential 5 in
  check "valid" true (Ids.is_valid ~n:5 ids);
  check_int "first" 1 ids.(0);
  check_int "last" 5 ids.(4)

let test_ids_random_permutation () =
  let rng = Random.State.make [| 3 |] in
  let ids = Ids.random_permutation rng 100 in
  check "valid" true (Ids.is_valid ~n:100 ids);
  let sorted = Array.copy ids in
  Array.sort compare sorted;
  check "is permutation" true (sorted = Ids.sequential 100)

let test_ids_spread () =
  let rng = Random.State.make [| 4 |] in
  let ids = Ids.spread rng 50 in
  check "valid" true (Ids.is_valid ~n:50 ids);
  check "within square bound" true (Array.for_all (fun x -> x <= 2500) ids)

let test_ids_adversarial () =
  let g = Gen.path 10 in
  let ids = Ids.adversarial_bfs g in
  check "valid" true (Ids.is_valid ~n:10 ids);
  (* BFS from node 0 on a path = increasing along the path *)
  for v = 0 to 9 do
    check_int "bfs order" (v + 1) ids.(v)
  done

let test_ids_invalid () =
  check "duplicate rejected" false (Ids.is_valid ~n:3 [| 1; 1; 2 |]);
  check "zero rejected" false (Ids.is_valid ~n:3 [| 0; 1; 2 |]);
  check "too large rejected" false (Ids.is_valid ~n:3 [| 1; 2; 100 |])

(* randomness *)

let test_randomness_deterministic () =
  let r1 = Randomness.create ~seed:7 in
  let r2 = Randomness.create ~seed:7 in
  for node = 0 to 5 do
    for idx = 0 to 5 do
      check "reproducible" true
        (Randomness.bits64 r1 ~node ~idx = Randomness.bits64 r2 ~node ~idx)
    done
  done

let test_randomness_varies () =
  let r = Randomness.create ~seed:7 in
  let distinct = Hashtbl.create 64 in
  for node = 0 to 7 do
    for idx = 0 to 7 do
      Hashtbl.replace distinct (Randomness.bits64 r ~node ~idx) ()
    done
  done;
  check "no obvious collisions" true (Hashtbl.length distinct = 64)

let test_randomness_seed_matters () =
  let r1 = Randomness.create ~seed:1 in
  let r2 = Randomness.create ~seed:2 in
  check "different seeds differ" true
    (Randomness.bits64 r1 ~node:0 ~idx:0 <> Randomness.bits64 r2 ~node:0 ~idx:0)

let test_randomness_bounds () =
  let r = Randomness.create ~seed:11 in
  for i = 0 to 100 do
    let x = Randomness.int r ~node:i ~idx:0 ~bound:10 in
    check "int in range" true (x >= 0 && x < 10)
  done

let test_randomness_bit_balance () =
  let r = Randomness.create ~seed:5 in
  let ones = ref 0 in
  for i = 0 to 9999 do
    if Randomness.bit r ~node:i ~idx:0 then incr ones
  done;
  check "roughly balanced" true (!ones > 4500 && !ones < 5500)

(* meter *)

let test_meter () =
  let m = Meter.create 4 in
  Meter.charge m 0 3;
  Meter.charge m 0 1;
  (* lower charge ignored *)
  Meter.charge m 2 5;
  check_int "max kept" 3 (Meter.radius m 0);
  check_int "untouched" 0 (Meter.radius m 1);
  check_int "max radius" 5 (Meter.max_radius m);
  Meter.charge_all m 4;
  check_int "charge_all raises" 4 (Meter.radius m 1);
  check_int "charge_all keeps higher" 5 (Meter.radius m 2);
  let hist = Meter.histogram m in
  check_int "histogram buckets" 2 (List.length hist)

let test_meter_histogram_contents () =
  let m = Meter.create 6 in
  (* radii: [3; 0; 5; 0; 3; 3] *)
  Meter.charge m 0 3;
  Meter.charge m 2 5;
  Meter.charge m 4 3;
  Meter.charge m 5 3;
  Alcotest.(check (list (pair int int)))
    "exact buckets, ascending"
    [ (0, 2); (3, 3); (5, 1) ]
    (Meter.histogram m);
  check "mean radius" true (abs_float (Meter.mean_radius m -. 14.0 /. 6.0) < 1e-9)

let test_meter_empty () =
  let m = Meter.create 0 in
  check_int "max radius of empty meter" 0 (Meter.max_radius m);
  Alcotest.(check (list (pair int int))) "empty histogram" [] (Meter.histogram m);
  check "empty mean is finite" true (Meter.mean_radius m = 0.0)

(* ball *)

let test_ball_path () =
  let g = Gen.path 10 in
  let b = Ball.gather g ~center:5 ~radius:2 in
  check_int "size" 5 (G.n b.Ball.graph);
  check_int "center dist" 0 b.Ball.dist.(b.Ball.center);
  check "incomplete" false b.Ball.complete;
  check "member" true (Ball.mem_global b 3);
  check "non-member" false (Ball.mem_global b 2)

let test_ball_whole_component () =
  let g = Gen.cycle 6 in
  let b = Ball.gather g ~center:0 ~radius:3 in
  check_int "whole cycle" 6 (G.n b.Ball.graph);
  check "complete" true b.Ball.complete

let test_ball_preserves_structure () =
  let g = Gen.complete 5 in
  let b = Ball.gather g ~center:0 ~radius:1 in
  check_int "all nodes" 5 (G.n b.Ball.graph);
  check_int "all edges" 10 (G.m b.Ball.graph)

let test_ball_dist () =
  let g = Gen.balanced_tree ~arity:2 ~height:3 in
  let b = Ball.gather g ~center:0 ~radius:2 in
  check_int "size" 7 (G.n b.Ball.graph);
  Array.iteri
    (fun l d ->
      let glob = b.Ball.to_global.(l) in
      let expected = if glob = 0 then 0 else if glob <= 2 then 1 else 2 in
      check_int "distance" expected d)
    b.Ball.dist

(* instance *)

let test_instance_defaults () =
  let g = Gen.cycle 5 in
  let inst = Instance.create g in
  check_int "n" 5 (Instance.n inst);
  check_int "promise" 5 inst.Instance.n_promise;
  check_int "id" 3 (Instance.id inst 2)

let test_instance_promise () =
  let g = Gen.cycle 5 in
  let inst = Instance.create ~n_promise:100 g in
  check_int "promise" 100 inst.Instance.n_promise

let test_instance_with_seed () =
  let g = Gen.cycle 5 in
  let inst = Instance.create ~seed:1 g in
  let inst2 = Instance.with_seed inst 2 in
  check_int "seed updated" 2 inst2.Instance.seed;
  check "randomness differs" true
    (Randomness.bits64 inst.Instance.rand ~node:0 ~idx:0
    <> Randomness.bits64 inst2.Instance.rand ~node:0 ~idx:0)

let test_instance_rejects_bad_ids () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  let g = Gen.cycle 3 in
  check "rejects duplicates" true
    (raises (fun () -> Instance.create ~ids:[| 1; 1; 2 |] g));
  check "rejects id 0" true
    (raises (fun () -> Instance.create ~ids:[| 0; 1; 2 |] g));
  check "rejects an id above n_promise²" true
    (raises (fun () -> Instance.create ~ids:[| 1; 2; 10 |] g));
  check "rejects a short id array" true
    (raises (fun () -> Instance.create ~ids:[| 1; 2 |] g));
  check "accepts spread ids up to n_promise²" false
    (raises (fun () -> Instance.create ~ids:[| 9; 1; 5 |] g));
  (* the default ids 1..n must fit the promise too: 5 nodes need
     n_promise >= 3 *)
  let g5 = Gen.cycle 5 in
  check "rejects default ids above n_promise²" true
    (raises (fun () -> Instance.create ~n_promise:2 g5));
  check "accepts default ids within n_promise²" false
    (raises (fun () -> Instance.create ~n_promise:3 g5));
  check "rejects supplied ids above n_promise²" true
    (raises (fun () -> Instance.create ~n_promise:2 ~ids:(Ids.sequential 5) g5));
  (* the bound itself, one past it, and 0 or a negative id after other
     ids were accepted *)
  check "accepts an id equal to n_promise²" false
    (raises (fun () -> Instance.create ~n_promise:4 ~ids:[| 16; 1; 2 |] g));
  check "rejects an id one above n_promise²" true
    (raises (fun () -> Instance.create ~n_promise:4 ~ids:[| 17; 1; 2 |] g));
  check "rejects id 0 after others" true
    (raises (fun () -> Instance.create ~ids:[| 1; 2; 0 |] g));
  check "rejects a negative id" true
    (raises (fun () -> Instance.create ~ids:[| 2; -1; 1 |] g));
  (* duplicates among 3,000 ids, at the ends and in the middle: spread
     ids, and multiples of 2^40, which share all their low bits and so
     land in one slot of any table indexed by low bits *)
  let n = 3000 in
  let big = Gen.cycle n in
  let rng = Random.State.make [| 11 |] in
  let spread = Ids.spread rng n in
  let wide = Array.init n (fun v -> (v + 1) lsl 40) in
  let dup a i j =
    let b = Array.copy a in
    b.(j) <- b.(i);
    b
  in
  List.iter
    (fun (name, ids) ->
      let create ids () = Instance.create ~n_promise:(1 lsl 26) ~ids big in
      check ("accepts " ^ name) false (raises (create ids));
      List.iter
        (fun (i, j) ->
          check
            (Printf.sprintf "rejects a duplicate among %s (%d at %d)" name i j)
            true
            (raises (create (dup ids i j))))
        [ (0, n - 1); (n - 1, 0); (1234, 1235); (17, 2999) ])
    [ ("spread ids", spread); ("multiples of 2^40", wide) ]

(* properties *)

let prop_ball_radius =
  QCheck.Test.make ~name:"ball contains exactly the radius-r nodes" ~count:100
    QCheck.(pair (int_range 3 25) (int_range 0 5))
    (fun (n, r) ->
      let g = Gen.cycle n in
      let b = Ball.gather g ~center:0 ~radius:r in
      let expected = min n ((2 * r) + 1) in
      G.n b.Ball.graph = expected
      && Array.for_all (fun d -> d <= r) b.Ball.dist)

let prop_ids_always_valid =
  QCheck.Test.make ~name:"generated ids are always valid" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let rng = Random.State.make [| n |] in
      Ids.is_valid ~n (Ids.sequential n)
      && Ids.is_valid ~n (Ids.random_permutation rng n)
      && Ids.is_valid ~n (Ids.spread rng n))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_ball_radius; prop_ids_always_valid ]

let suite =
  [
    ("ids sequential", `Quick, test_ids_sequential);
    ("ids random permutation", `Quick, test_ids_random_permutation);
    ("ids spread", `Quick, test_ids_spread);
    ("ids adversarial", `Quick, test_ids_adversarial);
    ("ids invalid", `Quick, test_ids_invalid);
    ("randomness deterministic", `Quick, test_randomness_deterministic);
    ("randomness varies", `Quick, test_randomness_varies);
    ("randomness seed matters", `Quick, test_randomness_seed_matters);
    ("randomness bounds", `Quick, test_randomness_bounds);
    ("randomness bit balance", `Quick, test_randomness_bit_balance);
    ("meter", `Quick, test_meter);
    ("meter histogram contents", `Quick, test_meter_histogram_contents);
    ("meter empty", `Quick, test_meter_empty);
    ("ball path", `Quick, test_ball_path);
    ("ball whole component", `Quick, test_ball_whole_component);
    ("ball complete graph", `Quick, test_ball_preserves_structure);
    ("ball distances", `Quick, test_ball_dist);
    ("instance defaults", `Quick, test_instance_defaults);
    ("instance promise", `Quick, test_instance_promise);
    ("instance with_seed", `Quick, test_instance_with_seed);
    ("instance rejects bad ids", `Quick, test_instance_rejects_bad_ids);
  ]
  @ qcheck_tests
