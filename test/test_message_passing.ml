(* Tests for the synchronous round engine (Frontier.run executing
   Message_passing algorithms), flood_gather, and the one-round
   distributed LCL checker. *)

module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Instance = Repro_local.Instance
module MP = Repro_local.Message_passing
module Frontier = Repro_local.Frontier
module Reference = Repro_fuzz.Reference
module DC = Repro_lcl.Distributed_check
module Labeling = Repro_lcl.Labeling
module SO = Repro_problems.Sinkless_orientation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* an algorithm that computes each node's eccentricity by flooding ids:
   halt when a round brings nothing new, output rounds-to-quiescence *)
let ecc_algorithm : (int list * int, int list, int) MP.algorithm =
  {
    MP.init = (fun inst v -> ([ Instance.id inst v ], 0));
    send = (fun (known, _) ~round:_ ~port:_ -> known);
    receive =
      (fun (known, stable) ~round:_ msgs ->
        let fresh =
          Array.fold_left
            (fun acc l -> List.filter (fun x -> not (List.mem x known)) l @ acc)
            [] msgs
          |> List.sort_uniq compare
        in
        if fresh = [] then Either.Right stable
        else Either.Left (fresh @ known, stable + 1));
  }

let test_ecc_path () =
  let g = Gen.path 7 in
  let inst = Instance.create g in
  let r = Frontier.run inst ecc_algorithm in
  (* the middle node hears everything after 3 rounds; endpoints need 6 *)
  check_int "middle" 3 r.Frontier.outputs.(3);
  check_int "endpoint" 6 r.Frontier.outputs.(0);
  check "max >= per-node" true (r.Frontier.max_rounds >= r.Frontier.rounds.(0) - 1)

let test_ecc_cycle () =
  let g = Gen.cycle 8 in
  let inst = Instance.create g in
  let r = Frontier.run inst ecc_algorithm in
  Array.iter (fun o -> check_int "all nodes ecc 4" 4 o) r.Frontier.outputs

let test_ecc_disconnected () =
  let g = Gen.disjoint_union [ Gen.path 3; Gen.empty 1 ] in
  let inst = Instance.create g in
  let r = Frontier.run inst ecc_algorithm in
  check_int "isolated halts immediately" 0 r.Frontier.outputs.(3)

let test_self_loop_delivery () =
  (* a node with a self-loop receives its own message *)
  let g = G.of_edges ~n:1 [ (0, 0) ] in
  let inst = Instance.create g in
  let alg : (unit, string, bool) MP.algorithm =
    {
      MP.init = (fun _ _ -> ());
      send = (fun () ~round:_ ~port -> Printf.sprintf "port%d" port);
      receive =
        (fun () ~round:_ msgs ->
          (* message into port 0 arrives at port 1 and vice versa *)
          Either.Right (msgs.(0) = "port1" && msgs.(1) = "port0"));
    }
  in
  let r = Frontier.run inst alg in
  check "loop delivery crossed" true r.Frontier.outputs.(0)

let test_divergence_detected () =
  let g = Gen.cycle 3 in
  let inst = Instance.create g in
  let never : (unit, unit, unit) MP.algorithm =
    {
      MP.init = (fun _ _ -> ());
      send = (fun () ~round:_ ~port:_ -> ());
      receive = (fun () ~round:_ _ -> Either.Left ());
    }
  in
  check "diverging algorithm detected" true
    (try
       ignore (Frontier.run ~limit:10 inst never);
       false
     with Failure _ -> true)

let test_flood_gather_distances () =
  let g = Gen.path 5 in
  let inst = Instance.create g in
  let by_round = MP.flood_gather inst ~radius:3 (fun v -> v) in
  (* node 0 hears 1 in round 0(=distance 1), 2 at distance 2, 3 at 3 *)
  check "d1" true (by_round.(0).(0) = [ 1 ]);
  check "d2" true (by_round.(0).(1) = [ 2 ]);
  check "d3" true (by_round.(0).(2) = [ 3 ]);
  (* middle node hears both sides in round 0 *)
  check "middle d1" true (List.sort compare by_round.(2).(0) = [ 1; 3 ])

let test_flood_matches_ball () =
  let rng = Random.State.make [| 5 |] in
  let g = Gen.random_regular rng ~n:60 ~d:3 in
  let inst = Instance.create g in
  let radius = 3 in
  let by_round = MP.flood_gather inst ~radius (fun v -> v) in
  for v = 0 to 9 do
    let ball = Repro_local.Ball.gather g ~center:v ~radius in
    let heard =
      v
      :: List.concat (Array.to_list (Array.map (fun l -> l) by_round.(v)))
      |> List.sort_uniq compare
    in
    let ball_nodes = Array.to_list ball.Repro_local.Ball.to_global |> List.sort compare in
    check (Printf.sprintf "flood = ball at %d" v) true (heard = ball_nodes)
  done

(* distributed checker *)

let test_dc_accepts_valid () =
  let rng = Random.State.make [| 6 |] in
  let g = SO.hard_instance rng ~n:300 in
  let inst = Instance.create g in
  let out, _ = SO.solve_deterministic inst in
  let v = DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out in
  check "accepts" true v.DC.all_accept;
  check_int "one round" 1 v.DC.rounds

let test_dc_rejects_locally () =
  let rng = Random.State.make [| 7 |] in
  let g = SO.hard_instance rng ~n:300 in
  let inst = Instance.create g in
  let out, _ = SO.solve_deterministic inst in
  (* make node u a sink: orient all its halves In, far sides Out *)
  let u = 5 in
  Array.iter
    (fun h ->
      out.Labeling.b.(h) <- SO.In;
      out.Labeling.b.(G.mate h) <- SO.Out)
    (G.halves g u);
  let v = DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out in
  check "rejects" false v.DC.all_accept;
  check "u itself rejects" false v.DC.accepts.(u);
  (* far away nodes still accept: rejection is local *)
  let far =
    let d = Repro_graph.Traversal.bfs g u in
    let best = ref u in
    Array.iteri (fun w dw -> if dw > d.(!best) then best := w) d;
    !best
  in
  check "far node accepts" true v.DC.accepts.(far)

(* the checker's per-node verdicts against the centralized node-centric
   reference, which rebuilds each node's views from its own radius-1
   ball instead of the CSR mates the sweep reads *)
let same_verdicts (v : DC.verdict) g ~input ~output =
  v.DC.accepts = Reference.node_verdicts SO.problem g ~input ~output

let test_dc_matches_centralized () =
  let rng = Random.State.make [| 8 |] in
  for seed = 1 to 10 do
    let g = SO.hard_instance rng ~n:100 in
    let inst = Instance.create ~seed g in
    let out, _ = SO.solve_randomized inst in
    (* random mutation half the time *)
    if seed mod 2 = 0 then begin
      let h = Random.State.int rng (2 * G.m g) in
      out.Labeling.b.(h) <-
        (match out.Labeling.b.(h) with SO.Out -> SO.In | SO.In -> SO.Out)
    end;
    let input = SO.trivial_input g in
    let dist = DC.run SO.problem inst ~input ~output:out in
    check (Printf.sprintf "agree seed %d" seed) true
      (same_verdicts dist g ~input ~output:out);
    check (Printf.sprintf "mutation rejected seed %d" seed) (seed mod 2 = 1)
      dist.DC.all_accept
  done

let prop_dc_equals_central =
  QCheck.Test.make ~name:"distributed = centralized verdict" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_regular rng ~n:30 ~d:4 in
      let inst = Instance.create g in
      let out, _ = SO.solve_deterministic inst in
      (* corrupt 0-2 halves *)
      for _ = 1 to seed mod 3 do
        let h = Random.State.int rng (2 * G.m g) in
        out.Labeling.b.(h) <- (if Random.State.bool rng then SO.Out else SO.In)
      done;
      let input = SO.trivial_input g in
      same_verdicts (DC.run SO.problem inst ~input ~output:out) g ~input
        ~output:out)

(* ------------------------------------------------------------------ *)
(* engine goldens and arena-mailbox semantics                          *)
(* ------------------------------------------------------------------ *)

module Pool = Repro_local.Pool
module Obs = Repro_obs

let with_sizes f =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      List.iter
        (fun s ->
          Pool.set_size s;
          f s)
        [ 1; 2; 4 ])

(* a fixed 24-node 3-regular fixture; the goldens below were pinned from
   the boxed reference engine, so the engine must reproduce them
   bit-for-bit at every pool size *)
let ecc24_graph () = Gen.random_regular (Random.State.make [| 9 |]) ~n:24 ~d:3

let ecc24_outputs =
  [| 5; 5; 6; 4; 4; 5; 4; 5; 5; 5; 5; 4; 6; 4; 6; 5; 4; 5; 4; 4; 5; 6; 4; 5 |]

let ecc24_rounds =
  [| 6; 6; 7; 5; 5; 6; 5; 6; 6; 6; 6; 5; 7; 5; 7; 6; 5; 6; 5; 5; 6; 7; 5; 6 |]

let test_golden_ecc24 () =
  let inst = Instance.create (ecc24_graph ()) in
  with_sizes (fun s ->
      let r = Frontier.run inst ecc_algorithm in
      check (Printf.sprintf "outputs, %d domains" s) true
        (r.Frontier.outputs = ecc24_outputs);
      check (Printf.sprintf "rounds, %d domains" s) true
        (r.Frontier.rounds = ecc24_rounds);
      check_int (Printf.sprintf "max_rounds, %d domains" s) 7 r.Frontier.max_rounds)

let test_golden_flood24 () =
  let inst = Instance.create (ecc24_graph ()) in
  with_sizes (fun s ->
      let by_round = MP.flood_gather inst ~radius:3 (fun v -> v) in
      let at d = List.sort compare by_round.(0).(d) in
      check (Printf.sprintf "node 0 d1, %d domains" s) true
        (at 0 = [ 1; 16; 17 ]);
      check (Printf.sprintf "node 0 d2, %d domains" s) true
        (at 1 = [ 3; 5; 10; 11 ]);
      check (Printf.sprintf "node 0 d3, %d domains" s) true
        (at 2 = [ 2; 6; 7; 12; 13; 18; 19; 22 ]))

(* when a node halts, the engine must keep delivering its LAST sent
   message: its mailbox slots keep the last message written there and
   are simply not rewritten. Node 0 halts in round 0 after sending 100*round + id = 0;
   node 1 keeps running and must read 0 (not a fresh send, not garbage)
   in every later round. *)
let test_halted_message_repeats () =
  let g = Gen.path 2 in
  let inst = Instance.create g in
  let alg : (int * int list, int, int list) MP.algorithm =
    {
      MP.init = (fun _ v -> (v, []));
      send = (fun (v, _) ~round ~port:_ -> (100 * round) + v);
      receive =
        (fun (v, acc) ~round msgs ->
          if v = 0 then Either.Right []
          else
            let acc = msgs.(0) :: acc in
            if round = 2 then Either.Right (List.rev acc)
            else Either.Left (v, acc));
    }
  in
  let r = Frontier.run inst alg in
  check "halted neighbor's last message repeats" true
    (r.Frontier.outputs.(1) = [ 0; 0; 0 ])

(* the boxed reference engine is the differential oracle: the engine
   must agree with it exactly on a nontrivial run, at every pool size *)
let test_engine_matches_boxed () =
  let inst = Instance.create (ecc24_graph ()) in
  let b = Reference.run_boxed inst ecc_algorithm in
  with_sizes (fun s ->
      let a = Frontier.run inst ecc_algorithm in
      let tag = Printf.sprintf "%d domains" s in
      check ("outputs " ^ tag) true (a.Frontier.outputs = b.Reference.outputs);
      check ("rounds " ^ tag) true (a.Frontier.rounds = b.Reference.rounds);
      check_int ("max_rounds " ^ tag) b.Reference.max_rounds
        a.Frontier.max_rounds)

(* traced flood telemetry: the flood rebuilds the per-node knowledge
   lists only when the registry is live, and the resulting byte counts
   must equal the pinned goldens. Telemetry rounds are deterministic for
   every pool size. *)
let flood_trace_rounds inst ~radius =
  let _, events =
    Obs.Trace.record (fun () -> MP.flood_gather inst ~radius (fun v -> v))
  in
  Obs.Registry.disable ();
  List.filter_map
    (function
      | Obs.Trace.Span s when s.Obs.Trace.label = "flood.round" ->
        let kv k = Obs.Trace.kv k s in
        Some (kv "messages", kv "payload_bytes", kv "mailbox_max")
      | _ -> None)
    events

let test_traced_flood_bytes_regular () =
  let rng = Random.State.make [| 5 |] in
  let g = Gen.random_regular rng ~n:60 ~d:3 in
  let inst = Instance.create g in
  with_sizes (fun s ->
      let rounds = flood_trace_rounds inst ~radius:4 in
      check (Printf.sprintf "golden rounds, %d domains" s) true
        (rounds
        = [
            (180, 4320, 3); (180, 17136, 3); (180, 40752, 3); (180, 81936, 3);
          ]))

let test_traced_flood_bytes_path () =
  let inst = Instance.create (Gen.path 5) in
  with_sizes (fun s ->
      let rounds = flood_trace_rounds inst ~radius:3 in
      check (Printf.sprintf "golden rounds, %d domains" s) true
        (rounds = [ (8, 192, 2); (8, 528, 2); (8, 768, 2) ]))

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_dc_equals_central ]

let suite =
  [
    ("eccentricity on path", `Quick, test_ecc_path);
    ("eccentricity on cycle", `Quick, test_ecc_cycle);
    ("disconnected", `Quick, test_ecc_disconnected);
    ("self-loop delivery", `Quick, test_self_loop_delivery);
    ("divergence detected", `Quick, test_divergence_detected);
    ("flood distances", `Quick, test_flood_gather_distances);
    ("flood matches ball", `Quick, test_flood_matches_ball);
    ("checker accepts valid", `Quick, test_dc_accepts_valid);
    ("checker rejects locally", `Quick, test_dc_rejects_locally);
    ("checker matches centralized", `Quick, test_dc_matches_centralized);
    ("golden ecc24 across pool sizes", `Quick, test_golden_ecc24);
    ("golden flood24 across pool sizes", `Quick, test_golden_flood24);
    ("halted node's message repeats", `Quick, test_halted_message_repeats);
    ("engine matches boxed oracle", `Quick, test_engine_matches_boxed);
    ("traced flood bytes (3-regular)", `Quick, test_traced_flood_bytes_regular);
    ("traced flood bytes (path)", `Quick, test_traced_flood_bytes_path);
  ]
  @ qcheck_tests
