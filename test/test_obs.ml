(* Tests for the telemetry subsystem: counter/histogram arithmetic, the
   disabled-registry no-op contract, find-or-create sharing, JSONL
   round-trips, the round-span-vs-counter message invariant, and the
   seq-vs-par deterministic-projection invariant. *)

module Obs = Repro_obs
module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module MP = Repro_local.Message_passing
module Instance = Repro_local.Instance
module Pool = Repro_local.Pool
module Frontier = Repro_local.Frontier
module Audit = Repro_local.Audit
module SO = Repro_problems.Sinkless_orientation
module DC = Repro_lcl.Distributed_check

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* every test that enables the registry must switch it back off, or it
   would change the timing profile of the suites that run after it *)
let with_enabled f =
  Fun.protect ~finally:(fun () -> Obs.Registry.disable ()) (fun () ->
      Obs.Registry.enable ();
      f ())

(* counters *)

let test_counter_arithmetic () =
  let gate = ref false in
  let c = Obs.Counter.make ~gate "test.scratch.counter" in
  Alcotest.(check string) "name" "test.scratch.counter" (Obs.Counter.name c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  check_int "gated-off mutation is a no-op" 0 (Obs.Counter.value c);
  gate := true;
  Obs.Counter.incr c;
  Obs.Counter.add c 5;
  check_int "incr + add" 6 (Obs.Counter.value c);
  Obs.Counter.reset c;
  check_int "reset" 0 (Obs.Counter.value c)

(* histograms *)

let test_histogram_arithmetic () =
  let gate = ref false in
  let h = Obs.Histogram.make ~gate "test.scratch.hist" in
  Obs.Histogram.observe h 100;
  check_int "gated-off observation is a no-op" 0 (Obs.Histogram.count h);
  gate := true;
  List.iter (Obs.Histogram.observe h) [ 0; 1; 2; 3; 8 ];
  check_int "count" 5 (Obs.Histogram.count h);
  check_int "sum" 14 (Obs.Histogram.sum h);
  check_int "max" 8 (Obs.Histogram.max_value h);
  check "mean" true (abs_float (Obs.Histogram.mean h -. 2.8) < 1e-9);
  let s = Obs.Histogram.snapshot h in
  Alcotest.(check (list (pair int int)))
    "power-of-two buckets, ascending"
    [ (0, 1); (1, 1); (2, 2); (8, 1) ]
    s.Obs.Histogram.buckets;
  Obs.Histogram.reset h;
  check_int "reset count" 0 (Obs.Histogram.count h);
  check_int "reset sum" 0 (Obs.Histogram.sum h)

let test_histogram_quantile () =
  let gate = ref true in
  let h = Obs.Histogram.make ~gate "test.scratch.quantile" in
  check "empty snapshot quantile is 0" true
    (Obs.Histogram.quantile (Obs.Histogram.snapshot h) 0.5 = 0.0);
  List.iter (Obs.Histogram.observe h) [ 0; 1; 2; 3; 8 ];
  let s = Obs.Histogram.snapshot h in
  let q p = Obs.Histogram.quantile s p in
  check "p0 is the bottom of the first bucket" true (abs_float (q 0.0) < 1e-9);
  (* rank 2.5 lands a quarter into bucket [2,4) *)
  check "median interpolates inside its bucket" true
    (abs_float (q 0.5 -. 2.5) < 1e-9);
  check "p100 capped at the observed max" true (abs_float (q 1.0 -. 8.0) < 1e-9);
  check "out-of-range q clamped" true (abs_float (q 2.0 -. 8.0) < 1e-9)

(* registry *)

let test_registry_sharing () =
  let reg = Obs.Registry.default in
  let a = Obs.Registry.counter reg "test.registry.shared" in
  let b = Obs.Registry.counter reg "test.registry.shared" in
  check "find-or-create returns the same instance" true (a == b);
  with_enabled (fun () ->
      Obs.Counter.add a 3;
      check_int "both handles see the value" 3 (Obs.Counter.value b));
  check "kind mismatch raises" true
    (match Obs.Registry.histogram reg "test.registry.shared" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "registered and listed" true
    (List.mem_assoc "test.registry.shared" (Obs.Registry.counters ()))

let test_registry_isolation () =
  let r1 = Obs.Registry.create () in
  let r2 = Obs.Registry.create () in
  Obs.Registry.enable ~reg:r1 ();
  Obs.Registry.enable ~reg:r2 ();
  let c1 = Obs.Registry.counter r1 "test.iso.counter" in
  let c2 = Obs.Registry.counter r2 "test.iso.counter" in
  check "same name, distinct registries, distinct instances" true
    (not (c1 == c2));
  Obs.Counter.add c1 5;
  check_int "no cross-registry bleed" 0 (Obs.Counter.value c2);
  check "default registry untouched" false
    (List.mem_assoc "test.iso.counter" (Obs.Registry.counters ()));
  Obs.Registry.disable ~reg:r1 ();
  Obs.Counter.incr c1;
  check_int "per-registry gate" 5 (Obs.Counter.value c1)

(* JSONL *)

let test_jsonl_round_trip () =
  let events =
    [
      Obs.Trace.Meta { label = "unit"; n = 42 };
      Obs.Trace.Span
        {
          trace_id = 1;
          span_id = 0;
          parent = -1;
          label = "frontier.round";
          start_ns = 100;
          stop_ns = 250;
          kvs =
            [
              ("round", 0); ("active", 8); ("messages", 17);
              ("payload_bytes", 680); ("mailbox_max", 3); ("rng_draws", 5);
            ];
        };
      Obs.Trace.Counter { name = "local.frontier.messages"; value = 17 };
    ]
  in
  let file = Filename.temp_file "repro_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Obs.Trace.write_jsonl file events;
      match Obs.Trace.read_jsonl file with
      | Error e -> Alcotest.failf "read_jsonl: %s" e
      | Ok back ->
        check "round-trips exactly" true (back = events);
        check_int "total messages" 17 (Obs.Trace.total_messages back);
        check_int "counter lookup" 17
          (match Obs.Trace.counter_value "local.frontier.messages" back with
          | Some v -> v
          | None -> -1))

let test_json_parser_rejects_garbage () =
  check "truncated object" true
    (Result.is_error (Obs.Json.of_string "{\"a\": 1"));
  check "trailing junk" true (Result.is_error (Obs.Json.of_string "1 2"));
  check "bare word" true (Result.is_error (Obs.Json.of_string "telemetry"));
  check "trailing garbage after object" true
    (Result.is_error (Obs.Json.of_string "{\"a\": 1} x"));
  check "trailing garbage after array" true
    (Result.is_error (Obs.Json.of_string "[1, 2],"))

(* printer/parser exactness on the shapes the trace format exercises *)

let json_round_trip j =
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Ok back -> back = j
  | Error _ -> false

let test_json_value_round_trips () =
  let module J = Obs.Json in
  check "string escapes" true
    (json_round_trip
       (J.String "quote \" backslash \\ newline \n tab \t cr \r nul \x00"));
  check "non-ascii bytes survive" true
    (json_round_trip (J.String "ball \xe2\x8a\x86 radius"));
  check "nested arrays" true
    (json_round_trip (J.List [ J.List [ J.Int 1; J.List [] ]; J.List [ J.Null ] ]));
  check "nested objects" true
    (json_round_trip
       (J.Obj
          [
            ("a", J.Obj [ ("b", J.List [ J.Bool true; J.Float 2.5 ]) ]);
            ("empty", J.Obj []);
          ]));
  check "max_int" true (json_round_trip (J.Int max_int));
  check "min_int" true (json_round_trip (J.Int min_int));
  check "ints stay ints" true
    (match Obs.Json.of_string "7" with Ok (J.Int 7) -> true | _ -> false)

(* the central invariant: a traced run's per-round message kvs sum to
   the engine's own message counter delta *)

(* the one-round checker on a solver output, then a frontier-engine
   flood on the same instance: node v halts after 1 + (v mod 3) rounds,
   so the trace carries several engine rounds with a shrinking live set *)
let flood = Audit.flood_algorithm ~actual:(fun v -> 1 + (v mod 3))

let check_and_flood inst g out =
  let v = DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out in
  check "output accepted" true v.DC.all_accept;
  ignore (Frontier.run inst flood)

(* [~root] runs the work under a root span, as the CLI records it *)
let traced_run ?(root = false) ~n ~seed () =
  let rng = Random.State.make [| seed |] in
  let g = SO.hard_instance rng ~n in
  let inst = Instance.create ~seed g in
  let out, _ = SO.solve_randomized inst in
  let work () = check_and_flood inst g out in
  Fun.protect
    ~finally:(fun () -> Obs.Registry.disable ())
    (fun () ->
      snd
        (Obs.Trace.record ~label:"test" ~n (fun () ->
             if root then Obs.Span.with_span "cli.test" work else work ())))

(* regression: an engine raising mid-run under --trace must not leave the
   recorder armed (it used to, silently polluting the next trace) *)

let test_trace_record_disarms_on_raise () =
  (try
     ignore
       (Obs.Trace.record ~label:"leak" (fun () -> failwith "mid-run crash"))
   with Failure _ -> ());
  Fun.protect
    ~finally:(fun () -> Obs.Registry.disable ())
    (fun () ->
      check "recorder disarmed after raise" false (Obs.Trace.active ());
      (* the next trace starts from a clean buffer and clean baselines *)
      let events = traced_run ~n:120 ~seed:21 () in
      let stale =
        List.exists
          (function Obs.Trace.Meta { label; _ } -> label = "leak" | _ -> false)
          events
      in
      check "no stale events inherited" false stale;
      check "fresh trace still consistent" true
        (Obs.Trace.check_invariants events = []))

let test_trace_messages_match_counter () =
  let events = traced_run ~n:300 ~seed:7 () in
  let per_round = Obs.Trace.total_messages ~engine:"frontier" events in
  check "trace has rounds" true (per_round > 0);
  check_int "round sums equal the engine counter delta" per_round
    (match Obs.Trace.counter_value "local.frontier.messages" events with
    | Some v -> v
    | None -> -1);
  check "offline recheck passes" true (Obs.Trace.check_invariants events = [])

(* the offline recheck must notice a frontier round span whose messages
   kv no longer sums to the engine's counter *)
let test_trace_tampered_round_caught () =
  let events = traced_run ~n:120 ~seed:9 () in
  let tampered = ref false in
  let bump = List.map (fun (k, v) -> (k, if k = "messages" then v + 1 else v)) in
  let events =
    List.map
      (function
        | Obs.Trace.Span s when s.Obs.Trace.label = "frontier.round" && not !tampered
          ->
          tampered := true;
          Obs.Trace.Span { s with Obs.Trace.kvs = bump s.Obs.Trace.kvs }
        | e -> e)
      events
  in
  check "a frontier round was tampered with" true !tampered;
  check "tampered message sum caught" true
    (Obs.Trace.check_invariants events <> [])

(* seq-vs-par: the deterministic projection of a traced run must not
   depend on the pool size (pool/chunk data is excluded by design) *)

let test_trace_seq_par_identical () =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 1;
      let seq = traced_run ~n:300 ~seed:11 () in
      check "sequential trace nonempty" true (seq <> []);
      List.iter
        (fun s ->
          Pool.set_size s;
          let par = traced_run ~n:300 ~seed:11 () in
          check
            (Printf.sprintf "projection identical at pool size %d" s)
            true
            (Obs.Trace.deterministic_equal seq par))
        [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* spans: recording semantics, abort, nesting invariants, and the
   seq-vs-par deterministic projection *)

let test_span_record_and_take () =
  (* disarmed: inert handles, nothing recorded, single-load discipline *)
  check "starts disarmed" false (Obs.Span.armed ());
  let h = Obs.Span.enter "test.disarmed" in
  check "disarmed handle is inert" false (Obs.Span.live h);
  Obs.Span.exit h;
  check_int "record while disarmed" (-1)
    (Obs.Span.record ~label:"test.x" ~start_ns:0 ~stop_ns:1 ());
  check "take while disarmed" true (Obs.Span.take () = []);
  (* armed: a three-span tree *)
  let tid = Obs.Span.arm () in
  let root = Obs.Span.enter "test.root" in
  check "armed handle is live" true (Obs.Span.live root);
  let child = Obs.Span.enter "test.child" in
  Obs.Span.exit ~kvs:[ ("k", 7) ] child;
  check "record returns an id" true
    (Obs.Span.record ~label:"test.record" ~start_ns:5 ~stop_ns:9 () >= 0);
  Obs.Span.exit root;
  let spans = Obs.Span.take () in
  check "take disarms" false (Obs.Span.armed ());
  check_int "three spans drained" 3 (List.length spans);
  let find l = List.find (fun s -> s.Obs.Trace.label = l) spans in
  let sroot = find "test.root" in
  let schild = find "test.child" in
  let srec = find "test.record" in
  check "all spans carry the armed trace id" true
    (List.for_all (fun s -> s.Obs.Trace.trace_id = tid) spans);
  check_int "root has no parent" (-1) sroot.Obs.Trace.parent;
  check_int "child parents under root" sroot.Obs.Trace.span_id
    schild.Obs.Trace.parent;
  check_int "record parents under the innermost open span"
    sroot.Obs.Trace.span_id srec.Obs.Trace.parent;
  check "exit kvs kept" true (schild.Obs.Trace.kvs = [ ("k", 7) ]);
  check "child interval inside root interval" true
    (sroot.Obs.Trace.start_ns <= schild.Obs.Trace.start_ns
    && schild.Obs.Trace.stop_ns <= sroot.Obs.Trace.stop_ns);
  check "second take is empty" true (Obs.Span.take () = [])

let test_span_abort_discards () =
  let (_ : int) = Obs.Span.arm () in
  let h = Obs.Span.enter "test.doomed" in
  Obs.Span.exit h;
  Obs.Span.abort ();
  check "abort disarms" false (Obs.Span.armed ());
  check "abort discards buffered spans" true (Obs.Span.take () = []);
  (* a failed recording leaves the next one pristine *)
  let (_ : int) = Obs.Span.arm () in
  let h = Obs.Span.enter "test.fresh" in
  Obs.Span.exit h;
  let spans = Obs.Span.take () in
  check "next recording sees only its own spans" true
    (List.for_all (fun s -> s.Obs.Trace.label = "test.fresh") spans
    && List.length spans = 1)

let sp ~tid ~id ~parent ~label ~a ~b kvs =
  Obs.Trace.Span
    {
      Obs.Trace.trace_id = tid;
      span_id = id;
      parent;
      label;
      start_ns = a;
      stop_ns = b;
      kvs;
    }

let test_span_nesting_invariants () =
  let good =
    [
      sp ~tid:7 ~id:3 ~parent:(-1) ~label:"serve.solve" ~a:100 ~b:900 [];
      sp ~tid:7 ~id:5 ~parent:3 ~label:"serve.execute" ~a:150 ~b:800
        [ ("n", 42) ];
    ]
  in
  check "well-nested spans pass" true (Obs.Trace.check_invariants good = []);
  let escaped =
    [
      sp ~tid:7 ~id:3 ~parent:(-1) ~label:"serve.solve" ~a:100 ~b:900 [];
      sp ~tid:7 ~id:5 ~parent:3 ~label:"serve.execute" ~a:150 ~b:950 [];
    ]
  in
  check "child escaping its parent interval fails" true
    (Obs.Trace.check_invariants escaped <> []);
  let dup =
    [
      sp ~tid:7 ~id:3 ~parent:(-1) ~label:"a" ~a:0 ~b:10 [];
      sp ~tid:7 ~id:3 ~parent:(-1) ~label:"b" ~a:0 ~b:10 [];
    ]
  in
  check "duplicate span ids fail" true (Obs.Trace.check_invariants dup <> []);
  check "unknown parent fails" true
    (Obs.Trace.check_invariants
       [ sp ~tid:7 ~id:3 ~parent:99 ~label:"orphan" ~a:0 ~b:10 [] ]
    <> []);
  check "backwards interval fails" true
    (Obs.Trace.check_invariants
       [ sp ~tid:7 ~id:3 ~parent:(-1) ~label:"rev" ~a:10 ~b:5 [] ]
    <> []);
  (* same ids in different traces are independent *)
  check "ids are scoped per trace" true
    (Obs.Trace.check_invariants
       [
         sp ~tid:1 ~id:3 ~parent:(-1) ~label:"a" ~a:0 ~b:10 [];
         sp ~tid:2 ~id:3 ~parent:(-1) ~label:"a" ~a:0 ~b:10 [];
       ]
    = [])

let test_span_projection_canonicalizes () =
  (* same tree shape recorded under different pool geometry: different
     raw ids, different timestamps, different chunk spans *)
  let run1 =
    [
      sp ~tid:7 ~id:3 ~parent:(-1) ~label:"frontier.run" ~a:100 ~b:900
        [ ("rounds", 2); ("wall_ns", 800) ];
      sp ~tid:7 ~id:6 ~parent:3 ~label:"frontier.round" ~a:110 ~b:400
        [ ("round", 0) ];
      sp ~tid:7 ~id:9 ~parent:6 ~label:"pool.chunk" ~a:120 ~b:200
        [ ("chunk", 0) ];
    ]
  in
  let run2 =
    [
      sp ~tid:41 ~id:8 ~parent:(-1) ~label:"frontier.run" ~a:5000 ~b:6000
        [ ("rounds", 2); ("wall_ns", 950) ];
      sp ~tid:41 ~id:13 ~parent:8 ~label:"frontier.round" ~a:5100 ~b:5400
        [ ("round", 0) ];
      sp ~tid:41 ~id:21 ~parent:13 ~label:"pool.chunk" ~a:5150 ~b:5160
        [ ("chunk", 4) ];
      sp ~tid:41 ~id:29 ~parent:13 ~label:"pool.chunk" ~a:5150 ~b:5170
        [ ("chunk", 5) ];
    ]
  in
  check "projection: ids/timing/pool spans are canonicalized away" true
    (Obs.Trace.deterministic_equal run1 run2);
  let run3 =
    [
      sp ~tid:41 ~id:8 ~parent:(-1) ~label:"frontier.run" ~a:5000 ~b:6000
        [ ("rounds", 3); ("wall_ns", 950) ];
      sp ~tid:41 ~id:13 ~parent:8 ~label:"frontier.round" ~a:5100 ~b:5400
        [ ("round", 0) ];
    ]
  in
  check "projection still sees real attribute differences" false
    (Obs.Trace.deterministic_equal run1 run3)

(* the forest rebuild must work on the stream order take() produces:
   children close (and are listed) before their parents *)
let test_span_forest_rebuild () =
  let raw ~id ~parent ~label ~a ~b =
    {
      Obs.Trace.trace_id = 7;
      span_id = id;
      parent;
      label;
      start_ns = a;
      stop_ns = b;
      kvs = [];
    }
  in
  let stream =
    [
      raw ~id:2 ~parent:1 ~label:"leaf" ~a:120 ~b:180;
      raw ~id:1 ~parent:0 ~label:"mid.short" ~a:110 ~b:200;
      raw ~id:3 ~parent:0 ~label:"mid.long" ~a:210 ~b:900;
      raw ~id:0 ~parent:(-1) ~label:"root" ~a:100 ~b:950;
      raw ~id:9 ~parent:42 ~label:"orphan" ~a:300 ~b:310;
    ]
  in
  match Obs.Summary.span_forest stream with
  | [ (7, roots) ] ->
    let labels ns = List.map (fun n -> n.Obs.Summary.node.Obs.Trace.label) ns in
    check "roots: real root plus the unresolvable orphan" true
      (labels roots = [ "root"; "orphan" ]);
    let root = List.hd roots in
    check "children attach under the root, ordered by start" true
      (labels root.Obs.Summary.children = [ "mid.short"; "mid.long" ]);
    check "grandchild attaches one level down" true
      (labels (List.hd root.Obs.Summary.children).Obs.Summary.children
      = [ "leaf" ]);
    check "critical path follows the widest child" true
      (labels (Obs.Summary.critical_path root) = [ "root"; "mid.long" ]);
    check "self time excludes child cover" true
      (Obs.Summary.self_time root = 950 - 100 - (200 - 110) - (900 - 210))
  | _ -> check "forest grouped as one trace under id 7" true false

let test_span_seq_par_identical () =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 1;
      let seq = traced_run ~root:true ~n:300 ~seed:13 () in
      check "trace carries span events" true (Obs.Trace.spans seq <> []);
      check "span nesting invariants hold" true
        (Obs.Trace.check_invariants seq = []);
      check "engine round spans present" true
        (List.exists
           (fun s -> s.Obs.Trace.label = "frontier.round")
           (Obs.Trace.spans seq));
      List.iter
        (fun s ->
          Pool.set_size s;
          let par = traced_run ~root:true ~n:300 ~seed:13 () in
          check
            (Printf.sprintf "span invariants hold at pool size %d" s)
            true
            (Obs.Trace.check_invariants par = []);
          check
            (Printf.sprintf "span projection identical at pool size %d" s)
            true
            (Obs.Trace.deterministic_equal seq par))
        [ 2; 4 ])

(* regression: the dispatching slot's span buffer used to be a
   4096-entry ring like the workers', so a long traced run lost its
   oldest round spans and the message sums stopped matching. A 2-node
   countdown runs [rounds] frontier rounds, every one a span on slot 0. *)
let test_trace_slot0_keeps_every_round () =
  let rounds = 5000 in
  let countdown : (int, unit, unit) MP.algorithm =
    {
      init = (fun _ _ -> rounds);
      send = (fun _ ~round:_ ~port:_ -> ());
      receive =
        (fun st ~round:_ _ -> if st <= 1 then Either.Right () else Either.Left (st - 1));
    }
  in
  let inst = Instance.create (Gen.path 2) in
  let _, events =
    Fun.protect
      ~finally:(fun () -> Obs.Registry.disable ())
      (fun () ->
        Obs.Trace.record (fun () -> Frontier.run ~limit:(rounds + 1) inst countdown))
  in
  let round_spans =
    List.filter (fun s -> s.Obs.Trace.label = "frontier.round") (Obs.Trace.spans events)
  in
  check_int "every round span kept" rounds (List.length round_spans);
  check "rounds numbered 0.." true
    (List.mapi (fun i s -> Obs.Trace.kv "round" s = i) round_spans
    |> List.for_all Fun.id);
  check_int "round message sums equal the counter" (2 * rounds)
    (Obs.Trace.total_messages ~engine:"frontier" events);
  check "offline recheck passes" true (Obs.Trace.check_invariants events = [])

let suite =
  [
    ("counter arithmetic and gating", `Quick, test_counter_arithmetic);
    ("histogram arithmetic and gating", `Quick, test_histogram_arithmetic);
    ("histogram quantiles", `Quick, test_histogram_quantile);
    ("span record and take", `Quick, test_span_record_and_take);
    ("span abort discards", `Quick, test_span_abort_discards);
    ("span nesting invariants", `Quick, test_span_nesting_invariants);
    ("span projection canonicalizes", `Quick, test_span_projection_canonicalizes);
    ("span forest rebuild", `Quick, test_span_forest_rebuild);
    ("seq-vs-par span telemetry", `Quick, test_span_seq_par_identical);
    ("registry find-or-create", `Quick, test_registry_sharing);
    ("registry isolation", `Quick, test_registry_isolation);
    ("jsonl round-trip", `Quick, test_jsonl_round_trip);
    ("json parser rejects garbage", `Quick, test_json_parser_rejects_garbage);
    ("json value round-trips", `Quick, test_json_value_round_trips);
    ("trace record disarms on raise", `Quick, test_trace_record_disarms_on_raise);
    ("trace messages match counter", `Quick, test_trace_messages_match_counter);
    ("trace tampered round caught", `Quick, test_trace_tampered_round_caught);
    ("trace slot 0 keeps every round", `Quick, test_trace_slot0_keeps_every_round);
    ("seq-vs-par telemetry", `Quick, test_trace_seq_par_identical);
  ]
