(* Tests for the frontier layer: Frontier_set membership and
   expansion, the frontier engine's byte-identity with the boxed
   reference engine (with its per-round live-set sizes pinned on a
   golden instance), the audit-catalog certificate equivalence between
   the two engines, and flood_gather against a BFS oracle; per-round
   frontier shape is read from the engine's round spans. *)

module Obs = Repro_obs
module Prov = Repro_obs.Provenance
module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Instance = Repro_local.Instance
module Pool = Repro_local.Pool
module FS = Repro_local.Frontier_set
module Frontier = Repro_local.Frontier
module MP = Repro_local.Message_passing
module Audit = Repro_local.Audit
module Meter = Repro_local.Meter
module SO = Repro_problems.Sinkless_orientation
module Problem = Core.Problem
module Reference = Repro_fuzz.Reference

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool_size s f =
  let saved = Pool.size () in
  Fun.protect
    ~finally:(fun () -> Pool.set_size saved)
    (fun () ->
      Pool.set_size s;
      f ())

(* the [label] round spans of one call, recorded with spans armed, in
   round order *)
let round_spans label f =
  let (_ : int) = Obs.Span.arm () in
  match f () with
  | x -> (x, List.filter (fun s -> s.Obs.Span.label = label) (Obs.Span.take ()))
  | exception e ->
    Obs.Span.abort ();
    raise e

let kv key (s : Obs.Span.span) =
  Option.value ~default:0 (List.assoc_opt key s.Obs.Span.kvs)

let column key spans = Array.of_list (List.map (kv key) spans)

(* ------------------------------------------------------------------ *)
(* Frontier_set *)

let test_set_basics () =
  let s = FS.create 130 in
  check_int "empty" 0 (FS.cardinal s);
  let members = [ 5; 0; 63; 64; 129; 62 ] in
  List.iter (FS.add s) members;
  FS.add s 63;
  check_int "re-add ignored" (List.length members) (FS.cardinal s);
  List.iteri
    (fun k v -> check_int (Printf.sprintf "member %d" k) v (FS.member s k))
    members;
  check "mem hit" true (FS.mem s 64);
  check "mem miss" false (FS.mem s 1);
  FS.remove_if s (fun v -> v mod 2 = 0);
  Alcotest.(check (list int))
    "remove_if keeps order"
    (List.filter (fun v -> v mod 2 = 1) members)
    (List.init (FS.cardinal s) (FS.member s));
  check "removed from mem" false (FS.mem s 64);
  FS.clear s;
  check_int "cleared" 0 (FS.cardinal s);
  check "cleared mem" false (FS.mem s 63);
  FS.fill_all s;
  check_int "fill_all" 130 (FS.cardinal s);
  check_int "fill_all order" 17 (FS.member s 17)

let test_set_expand () =
  (* path 0-1-2-3-4: expanding {3,1} finds {2,4,0} in first-discovery
     order (source members in order, each member's ports in order) *)
  let g = Gen.path 5 in
  let src = FS.create 5 and dst = FS.create 5 in
  let s = FS.scratch () in
  FS.add src 3;
  FS.add src 1;
  FS.expand ~g ~src ~dst s;
  Alcotest.(check (list int))
    "candidates in discovery order" [ 2; 4; 0 ]
    (List.init (FS.cardinal dst) (FS.member dst));
  (* scratch reuse on a second, larger expansion into the same [dst] *)
  FS.clear src;
  List.iter (FS.add src) [ 4; 0; 2 ];
  FS.expand ~g ~src ~dst s;
  Alcotest.(check (list int))
    "second expansion replaces dst" [ 3; 1 ]
    (List.init (FS.cardinal dst) (FS.member dst))

(* ------------------------------------------------------------------ *)
(* the frontier engine vs the boxed reference engine *)

(* the golden instance: a 160-node path flooded with
   actual v = v + 1, so node v halts after round v and the live count
   at round r is exactly 160 - r. *)
let test_switch_round_pinned () =
  let n = 160 in
  let inst = Instance.create (Gen.path n) in
  let alg = Audit.flood_algorithm ~actual:(fun v -> v + 1) in
  let res, spans = round_spans "frontier.round" (fun () -> Frontier.run inst alg) in
  check_int "rounds" n res.Frontier.max_rounds;
  check_int "one round span per round" n (List.length spans);
  let active = column "active" spans and edges = column "edges" spans in
  for r = 0 to n - 1 do
    check_int (Printf.sprintf "active at round %d" r) (n - r) active.(r)
  done;
  (* the path's live prefix loses one node per round: scanned half-edges
     strictly decrease once the wavefront moves *)
  for r = 1 to n - 1 do
    check
      (Printf.sprintf "edges shrink at round %d" r)
      true
      (edges.(r) <= edges.(r - 1))
  done;
  (* the boxed reference engine agrees with the run *)
  let boxed = Reference.run_boxed inst alg in
  check "boxed outputs" true (boxed.Reference.outputs = res.Frontier.outputs);
  check "boxed rounds" true (boxed.Reference.rounds = res.Frontier.rounds)

(* mailbox routing on a multigraph: self-loops (both sides at one node)
   and parallel edges (several ports to one neighbour) are where a slot
   mix-up would show. Node v's state in round r is 100·v + r, it sends
   state·16 + port and halts after round v mod 5, so the message on port
   p of v in round r is fixed by the mate half h' = mate (half_at g v p):
   its node u, its port half_port g h', and u's last sending round
   min r (u mod 5) (halted senders' messages stay in place). *)
let routing_graph () =
  let n = 1_100 in
  let rng = Random.State.make [| 29 |] in
  let cycle = List.init n (fun v -> (v, (v + 1) mod n)) in
  let chords =
    List.init 400 (fun _ -> (Random.State.int rng n, Random.State.int rng n))
  in
  let extra =
    [ (0, 0); (700, 700); (700, 700); (1, 2); (1, 2); (5, 6); (6, 5) ]
  in
  G.of_edges ~n (cycle @ extra @ chords)

let test_multigraph_routing () =
  let g = routing_graph () in
  let n = G.n g in
  check "has self-loops" true (G.has_self_loop g 0 && G.has_self_loop g 700);
  check "has parallel edges" false (G.is_simple g);
  let inst = Instance.create g in
  let halt v = v mod 5 in
  let expected v r =
    Array.init (G.degree g v) (fun p ->
        let h' = G.mate (G.half_at g v p) in
        let u = G.half_node g h' in
        (((100 * u) + min r (halt u)) * 16) + G.half_port g h')
  in
  let want = Array.init n (fun v -> Array.init (halt v + 1) (expected v)) in
  let outputs = Array.init n Fun.id in
  let rounds = Array.init n (fun v -> halt v + 1) in
  let run () =
    let got = Array.init n (fun v -> Array.make (halt v + 1) [||]) in
    let alg =
      {
        MP.init = (fun _ v -> 100 * v);
        send = (fun st ~round:_ ~port -> (st * 16) + port);
        receive =
          (fun st ~round msgs ->
            let v = st / 100 in
            got.(v).(round) <- Array.copy msgs;
            if round = halt v then Either.Right v else Either.Left (st + 1));
      }
    in
    let res = Frontier.run inst alg in
    (res, got)
  in
  Fun.protect
    ~finally:(fun () -> Pool.set_force_dispatch true)
    (fun () ->
      List.iter
        (fun force ->
          Pool.set_force_dispatch force;
          List.iter
            (fun size ->
              with_pool_size size (fun () ->
                  let what =
                    Printf.sprintf "%s, %d domains"
                      (if force then "forced" else "rule")
                      size
                  in
                  let res, got = run () in
                  check (what ^ ": received messages") true (got = want);
                  check (what ^ ": outputs") true
                    (res.Frontier.outputs = outputs);
                  check (what ^ ": rounds") true
                    (res.Frontier.rounds = rounds)))
            [ 1; 2; 4 ])
        [ true; false ])

(* certificate equivalence across the audit registry: every entry's
   certificate (the frontier engine's flood) must equal the same solve's
   declared radii replayed on the boxed reference engine, modulo the
   engine tag — at 1, 2 and 4 domains. The instance families and solvers
   are restated here, independently of the registry; a drift between the
   two fails loudly. *)
let catalog_replays =
  let hard_so seed n =
    Instance.create ~seed (SO.hard_instance (Random.State.make [| seed |]) ~n)
  in
  let simple seed n =
    Instance.create ~seed
      (Gen.random_simple_regular (Random.State.make [| seed |]) ~n ~d:3)
  in
  (* Meter.declared is already floored at 1, like run_flood's bound *)
  let metered solve inst = Meter.declared (snd (solve inst)) in
  [
    ("so-det", hard_so, metered SO.solve_deterministic);
    ("so-rand", hard_so, metered SO.solve_randomized);
    ("so-wave", hard_so, metered SO.solve_randomized);
    ("coloring", simple, metered Repro_problems.Coloring.solve);
    ("mis", simple, metered Repro_problems.Mis.solve);
    ("matching", simple, metered Repro_problems.Matching.solve);
    ("dcheck", hard_so, fun _ _ -> 1);
  ]

let test_catalog_engine_equivalence () =
  let strip c = { c with Prov.c_engine = ""; c_label = "" } in
  (* the verifier audits a labeled gadget, not an Instance.t family *)
  check "every flood-audited entry has a replay" true
    (List.map (fun (name, _, _) -> name) catalog_replays
    = List.filter (fun name -> name <> "verifier") Problem.audit_names);
  List.iter
    (fun (name, inst_of, declared_of) ->
      let audit = Option.get (Problem.audit name) in
      List.iter
        (fun size ->
          with_pool_size size (fun () ->
              let cert = audit ~seed:3 ~n:100 in
              let inst = inst_of 3 100 in
              let declared = declared_of inst in
              let _, boxed =
                Audit.certify_run inst ~declared (fun () ->
                    Reference.run_boxed inst (Audit.flood_algorithm ~actual:declared))
              in
              check
                (Printf.sprintf "%s tags at %d domains" name size)
                true
                (cert.Prov.c_engine = "frontier"
                && boxed.Prov.c_engine = "boxed");
              check
                (Printf.sprintf "%s certs equal at %d domains" name size)
                true
                (strip cert = strip boxed);
              check
                (Printf.sprintf "%s cert ok at %d domains" name size)
                true cert.Prov.c_ok))
        [ 1; 2; 4 ])
    catalog_replays

(* ------------------------------------------------------------------ *)
(* flood_gather against an independent BFS oracle: [by_round.(v).(d)]
   must list, in ascending class order, the payload classes whose
   nearest carrier is at distance exactly d+1 from v. A class is a
   distinct payload value, ordered by its first carrier node; the
   colliding payload [v mod 5] checks the set semantics. *)

let flood_oracle g ~radius payload =
  let n = G.n g in
  let firsts =
    List.filter
      (fun u -> not (List.exists (fun w -> payload w = payload u) (List.init u Fun.id)))
      (List.init n Fun.id)
  in
  Array.init n (fun v ->
      let dist = Repro_graph.Traversal.bfs g v in
      let rows = Array.make radius [] in
      List.iter
        (fun u ->
          let d = ref max_int in
          for w = 0 to n - 1 do
            if payload w = payload u && dist.(w) >= 0 then d := min !d dist.(w)
          done;
          if !d >= 1 && !d <= radius then
            rows.(!d - 1) <- payload u :: rows.(!d - 1))
        (List.rev firsts);
      rows)

let test_flood_bfs_oracle () =
  List.iter
    (fun (gname, g) ->
      let inst = Instance.create g in
      List.iter
        (fun (pname, payload) ->
          let expect = flood_oracle g ~radius:6 payload in
          List.iter
            (fun size ->
              with_pool_size size (fun () ->
                  check
                    (Printf.sprintf "%s, payload %s, %d domains" gname pname size)
                    true
                    (MP.flood_gather inst ~radius:6 payload = expect)))
            [ 1; 2; 4 ])
        [ ("v*7", fun v -> v * 7); ("v mod 5", fun v -> v mod 5) ])
    [
      ("path 40", Gen.path 40);
      ("cycle 9", Gen.cycle 9);
      ("star 12", Gen.star 12);
      ("grid 5x7", Gen.grid 5 7);
      ("hard SO 60", SO.hard_instance (Random.State.make [| 11 |]) ~n:60);
    ]

let suite =
  [
    ("frontier-set basics", `Quick, test_set_basics);
    ("frontier-set expand", `Quick, test_set_expand);
    ("switch round pinned on golden instance", `Quick, test_switch_round_pinned);
    ("multigraph mailbox routing", `Quick, test_multigraph_routing);
    ("audit catalog engine equivalence", `Slow, test_catalog_engine_equivalence);
    ("flood equals BFS oracle", `Quick, test_flood_bfs_oracle);
  ]
