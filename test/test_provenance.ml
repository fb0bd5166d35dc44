(* Tests for the locality provenance auditor: bitset arithmetic and
   edge cases, the distributed checker's audit, declared-bound floods and
   their ball containment, detection of a deliberately non-local run,
   pool-size independence of certificates, the solver audit catalog, and
   the audit/cert JSONL round-trip. *)

module Obs = Repro_obs
module Prov = Repro_obs.Provenance
module Bitset = Prov.Bitset
module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module T = Repro_graph.Traversal
module Instance = Repro_local.Instance
module Pool = Repro_local.Pool
module Audit = Repro_local.Audit
module Ball = Repro_local.Ball
module SO = Repro_problems.Sinkless_orientation
module Problem = Core.Problem
module DC = Repro_lcl.Distributed_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* bitsets, across 64-bit word boundaries *)

let test_bitset () =
  let s = Bitset.create 130 in
  check_int "length" 130 (Bitset.length s);
  check_int "empty" 0 (Bitset.cardinal s);
  let members = [ 0; 63; 64; 65; 127; 129 ] in
  List.iter (Bitset.add s) members;
  Bitset.add s 64;
  check_int "cardinal ignores re-adds" (List.length members) (Bitset.cardinal s);
  List.iter (fun i -> check (Printf.sprintf "mem %d" i) true (Bitset.mem s i)) members;
  List.iter
    (fun i -> check (Printf.sprintf "not mem %d" i) false (Bitset.mem s i))
    [ 1; 62; 66; 128 ];
  let listed = ref [] in
  Bitset.iter (fun i -> listed := i :: !listed) s;
  Alcotest.(check (list int)) "iter ascending" members (List.rev !listed);
  let d = Bitset.create 130 in
  Bitset.add d 7;
  Bitset.blit ~src:s ~dst:d;
  check "blit overwrites" false (Bitset.mem d 7);
  check "blit copies" true (Bitset.equal s d);
  let u = Bitset.create 130 in
  Bitset.add u 7;
  Bitset.union_into ~into:u s;
  check_int "union cardinal" (1 + List.length members) (Bitset.cardinal u);
  check "union keeps old" true (Bitset.mem u 7);
  check "union not equal" false (Bitset.equal u s)

(* the distributed checker audited natively: one declared round, so every
   node's influence must be exactly its closed neighborhood *)

let test_dcheck_native_audit () =
  let rng = Random.State.make [| 5 |] in
  let g = SO.hard_instance rng ~n:60 in
  let inst = Instance.create ~seed:5 g in
  let out, _ = SO.solve_deterministic inst in
  let verdict, cert =
    DC.audited_run SO.problem inst ~input:(SO.trivial_input g) ~output:out
  in
  check "checker accepts" true verdict.DC.all_accept;
  check "certificate passes" true cert.Prov.c_ok;
  check_int "declared bound is 1" 1 cert.Prov.c_declared;
  check "violations empty" true (cert.Prov.c_violations = []);
  check_int "one record per node" (G.n g) (Array.length cert.Prov.c_records);
  Array.iter
    (fun r ->
      check "radius within ball" true
        (r.Prov.influence_radius <= r.Prov.ball_radius);
      (* influence of a one-round node = its closed neighborhood *)
      let nbrs = List.sort_uniq compare (r.Prov.node :: G.neighbors g r.Prov.node) in
      check_int
        (Printf.sprintf "node %d influence = closed neighborhood" r.Prov.node)
        (List.length nbrs) r.Prov.influence_size)
    cert.Prov.c_records

(* a flood run to the graph's diameter gathers the whole component: the
   influence set must coincide with Ball.gather's member set *)

let test_flood_influence_is_ball () =
  let g = Gen.cycle 9 in
  let inst = Instance.create g in
  let radius = 3 in
  let cert = Audit.run_flood ~label:"t" inst ~declared:(fun _ -> radius) in
  check "cycle flood passes" true cert.Prov.c_ok;
  Array.iter
    (fun r ->
      let ball = Ball.gather g ~center:r.Prov.node ~radius in
      check_int
        (Printf.sprintf "node %d influence = |ball|" r.Prov.node)
        (Array.length ball.Ball.to_global)
        r.Prov.influence_size;
      check_int
        (Printf.sprintf "node %d radius" r.Prov.node)
        radius r.Prov.influence_radius)
    cert.Prov.c_records

(* the detection path: a run that listens longer than declared must be
   caught, with the offending node, leaked source and distance named *)

let test_non_local_caught () =
  let g = Gen.path 7 in
  let inst = Instance.create g in
  let cert =
    Audit.non_local_flood ~label:"cheat" inst ~declared:(fun _ -> 1) ~overshoot:2
  in
  check "certificate fails" false cert.Prov.c_ok;
  check "has violations" true (cert.Prov.c_violations <> []);
  List.iter
    (fun v ->
      check "bound is the declared 1" true (v.Prov.v_bound = 1);
      check "leak is beyond the ball" true (v.Prov.v_distance > v.Prov.v_bound);
      check "leak within actual rounds" true (v.Prov.v_distance <= 3);
      check "round consistent with distance" true
        (v.Prov.v_round = v.Prov.v_distance);
      (* the named source really is at that distance from the named node *)
      check_int "distance is the graph distance" v.Prov.v_distance
        (T.bfs g v.Prov.v_node).(v.Prov.v_source))
    cert.Prov.c_violations;
  (* an interior path node has both endpoints of its 2-ball's complement
     leaking; node 3 must have leaked source 1 < distance-2 sources *)
  check "node 3 leaked something at distance 2 or 3" true
    (List.exists
       (fun v -> v.Prov.v_node = 3 && v.Prov.v_distance >= 2)
       cert.Prov.c_violations);
  let printed =
    Format.asprintf "%a" Prov.pp_violation (List.hd cert.Prov.c_violations)
  in
  check "pp_violation mentions the node" true
    (String.length printed > 0)

(* certificates must be bit-identical at every pool size (the bitset
   updates follow the engine's per-slot ownership discipline) *)

let audited_dcheck_events ~n ~seed () =
  let rng = Random.State.make [| seed |] in
  let g = SO.hard_instance rng ~n in
  let inst = Instance.create ~seed g in
  let out, _ = SO.solve_deterministic inst in
  let _, cert =
    DC.audited_run SO.problem inst ~input:(SO.trivial_input g) ~output:out
  in
  Prov.to_events cert

let test_cert_pool_size_independent () =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 1;
      let seq = audited_dcheck_events ~n:300 ~seed:13 () in
      check "events nonempty" true (seq <> []);
      List.iter
        (fun s ->
          Pool.set_size s;
          let par = audited_dcheck_events ~n:300 ~seed:13 () in
          check (Printf.sprintf "identical at pool size %d" s) true (seq = par))
        [ 2; 4 ])

(* every audit entry certifies cleanly at its declared bound *)

let test_catalog_all_pass () =
  Alcotest.(check (list string))
    "the eight audit entries"
    (List.sort compare
       [
         "so-det";
         "so-rand";
         "so-wave";
         "coloring";
         "mis";
         "matching";
         "dcheck";
         "verifier";
       ])
    (List.sort compare Problem.audit_names);
  List.iter
    (fun name ->
      let cert = (Option.get (Problem.audit name)) ~seed:3 ~n:120 in
      check (name ^ " passes") true cert.Prov.c_ok;
      check (name ^ " audited every node") true
        (Array.length cert.Prov.c_records = cert.Prov.c_n))
    Problem.audit_names;
  check "find hit" true (Problem.audit "mis" <> None);
  check "find miss" true (Problem.audit "nope" = None)

(* audit/cert events round-trip through JSONL, and a certificate's event
   block satisfies the offline invariant checker *)

let test_audit_events_jsonl_round_trip () =
  let g = Gen.cycle 6 in
  let inst = Instance.create g in
  let cert = Audit.run_flood ~label:"rt" inst ~declared:(fun _ -> 2) in
  let events = Obs.Trace.Meta { label = "audit:rt"; n = 6 } :: Prov.to_events cert in
  check "invariants hold" true (Obs.Trace.check_invariants events = []);
  let file = Filename.temp_file "repro_audit" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Obs.Trace.write_jsonl file events;
      match Obs.Trace.read_jsonl file with
      | Error e -> Alcotest.failf "read_jsonl: %s" e
      | Ok back -> check "round-trips exactly" true (back = events))

(* the invariant checker rejects a tampered certificate block *)

let test_invariant_checker_catches_tampering () =
  let g = Gen.cycle 6 in
  let inst = Instance.create g in
  let cert = Audit.run_flood ~label:"tamper" inst ~declared:(fun _ -> 2) in
  let events = Prov.to_events cert in
  let tampered =
    List.map
      (function
        | Obs.Trace.Audit
            { node; rounds_active; influence_radius = _; ball_radius; influence_size } ->
          Obs.Trace.Audit
            {
              node;
              rounds_active;
              influence_radius = ball_radius + 5;
              ball_radius;
              influence_size;
            }
        | e -> e)
      events
  in
  check "tampered radius caught" true
    (Obs.Trace.check_invariants tampered <> []);
  let orphaned =
    List.filter (function Obs.Trace.Cert _ -> false | _ -> true) events
  in
  check "audit without closing cert caught" true
    (Obs.Trace.check_invariants orphaned <> [])

(* a raising audited run must leave the recorder disarmed *)

let test_audit_abort_on_raise () =
  let g = Gen.path 4 in
  let inst = Instance.create g in
  (try
     ignore
       (Audit.certify_run inst
          ~declared:(fun _ -> 1)
          (fun () -> failwith "boom"))
   with Failure _ -> ());
  check "recorder disarmed after raise" false (Prov.active ());
  (* and a fresh audit still works *)
  let cert = Audit.run_flood inst ~declared:(fun _ -> 1) in
  check "next audit clean" true cert.Prov.c_ok

(* ------------------------------------------------------------------ *)
(* Bitset edge cases: empty/full sets and aliasing *)

let bitset_of len members =
  let s = Bitset.create len in
  List.iter (Bitset.add s) members;
  s

let elements s =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let test_empty_full_masks () =
  List.iter
    (fun len ->
      let all = List.init len Fun.id in
      let full = bitset_of len all and empty = Bitset.create len in
      check_int (Printf.sprintf "len %d full cardinal" len) len
        (Bitset.cardinal full);
      check_int (Printf.sprintf "len %d empty cardinal" len) 0
        (Bitset.cardinal empty);
      check (Printf.sprintf "len %d iter full" len) true
        (elements full = all))
    [ 1; 63; 64; 65; 128 ]

(* self-aliasing of the mutators: [union_into] and [blit] must be
   identities when source and destination are one set. Frontier.run
   never aliases them — its influence and mailbox sets are distinct
   bitsets, even across a self-loop — so this pins the mutators'
   contract for any caller, not an engine path. *)
let test_aliasing () =
  let s = bitset_of 70 [ 0; 13; 63; 64; 69 ] in
  let before = elements s in
  Bitset.union_into ~into:s s;
  check "self union is identity" true (elements s = before);
  Bitset.blit ~src:s ~dst:s;
  check "self blit is identity" true (elements s = before)

let suite =
  [
    ("bitset across word boundaries", `Quick, test_bitset);
    ("dcheck native audit", `Quick, test_dcheck_native_audit);
    ("flood influence equals ball", `Quick, test_flood_influence_is_ball);
    ("non-local run caught", `Quick, test_non_local_caught);
    ("certificate pool-size independent", `Quick, test_cert_pool_size_independent);
    ("audit catalog all pass", `Quick, test_catalog_all_pass);
    ("audit events jsonl round-trip", `Quick, test_audit_events_jsonl_round_trip);
    ("invariant checker catches tampering", `Quick, test_invariant_checker_catches_tampering);
    ("audit aborted on raise", `Quick, test_audit_abort_on_raise);
    ("empty and full masks", `Quick, test_empty_full_masks);
    ("aliased union/blit", `Quick, test_aliasing);
  ]
