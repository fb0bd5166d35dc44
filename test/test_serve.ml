(* The serve layer: protocol framing (malformed frames become structured
   errors, never exceptions escaping the accept loop), the LRU artifact
   cache, scheduler admission/backpressure, and a live in-process server
   exercised through real sockets — including two interleaved clients
   whose replies must carry only their own request's telemetry. *)

module Serve = Repro_serve
module Protocol = Serve.Protocol
module Cache = Serve.Cache
module Scheduler = Serve.Scheduler
module Json = Repro_obs.Json
module Obs = Repro_obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let member_str name j =
  match Json.member name j with Some (Json.String s) -> Some s | _ -> None

let member_int name j =
  match Json.member name j with Some j -> Json.to_int j | _ -> None

let is_ok j = match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

(* ------------------------------------------------------------------ *)
(* protocol framing over a socketpair: the decoder must map every kind of
   malformed input to a structured [decode_error] *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f a b)

let write_all fd s =
  let b = Bytes.of_string s in
  let sent = ref 0 in
  while !sent < Bytes.length b do
    sent := !sent + Unix.write fd b !sent (Bytes.length b - !sent)
  done

let header_of_len len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let j =
        Json.Obj [ ("op", Json.String "solve"); ("n", Json.Int 42) ]
      in
      Protocol.write_frame a j;
      match Protocol.read_frame b with
      | Ok j' -> check_str "roundtrip" (Json.to_string j) (Json.to_string j')
      | Error e -> Alcotest.fail (Protocol.decode_error_to_string e))

let test_frame_eof () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Protocol.read_frame b with
      | Error Protocol.Eof -> ()
      | _ -> Alcotest.fail "expected Eof")

let test_frame_truncated_header () =
  with_socketpair (fun a b ->
      write_all a "\x00\x00";
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Protocol.read_frame b with
      | Error Protocol.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated on short header")

let test_frame_truncated_payload () =
  with_socketpair (fun a b ->
      write_all a (header_of_len 10 ^ "abcd");
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match Protocol.read_frame b with
      | Error Protocol.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated on short payload")

let test_frame_oversized () =
  with_socketpair (fun a b ->
      write_all a (header_of_len (Protocol.max_frame + 1));
      match Protocol.read_frame b with
      | Error (Protocol.Oversized n) ->
        check_int "declared size" (Protocol.max_frame + 1) n
      | _ -> Alcotest.fail "expected Oversized")

let test_frame_negative_length () =
  with_socketpair (fun a b ->
      write_all a "\xff\xff\xff\xff";
      match Protocol.read_frame b with
      | Error (Protocol.Oversized _) -> ()
      | _ -> Alcotest.fail "expected Oversized on negative length")

let test_frame_garbage_payload () =
  with_socketpair (fun a b ->
      write_all a (header_of_len 5 ^ "hel{o");
      match Protocol.read_frame b with
      | Error (Protocol.Bad_json _) -> ()
      | _ -> Alcotest.fail "expected Bad_json")

let test_request_hash_canonical () =
  let a =
    Json.Obj
      [
        ("op", Json.String "solve");
        ("n", Json.Int 7);
        ("inner", Json.Obj [ ("x", Json.Int 1); ("y", Json.Int 2) ]);
      ]
  in
  let b =
    Json.Obj
      [
        ("inner", Json.Obj [ ("y", Json.Int 2); ("x", Json.Int 1) ]);
        ("n", Json.Int 7);
        ("op", Json.String "solve");
      ]
  in
  let c = Json.Obj [ ("op", Json.String "solve"); ("n", Json.Int 8) ] in
  check_str "key order is canonical" (Protocol.request_hash a)
    (Protocol.request_hash b);
  check "different requests differ" true
    (Protocol.request_hash a <> Protocol.request_hash c)

(* ------------------------------------------------------------------ *)
(* cache *)

let test_cache_hit_miss_evict () =
  let c = Cache.create ~capacity:2 "test" in
  let builds = ref 0 in
  let get k =
    fst (Cache.find_or_add c k (fun () -> incr builds; k))
  in
  check "first is a miss" false (get "a");
  check "second is a hit" true (get "a");
  check_int "one build" 1 !builds;
  ignore (get "b");
  ignore (get "a");
  (* LRU is "b": inserting "c" evicts it *)
  ignore (get "c");
  check "a survived (recently used)" true (Cache.mem c "a");
  check "b evicted (least recent)" false (Cache.mem c "b");
  let s = Cache.stats c in
  check_int "hits" 2 s.Cache.hits;
  check_int "misses" 3 s.Cache.misses;
  check_int "evictions" 1 s.Cache.evictions;
  check_int "size" 2 s.Cache.size

let test_cache_build_failure_not_cached () =
  let c = Cache.create "test" in
  (try ignore (Cache.find_or_add c "k" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check "failed build not cached" false (Cache.mem c "k");
  let hit, v = Cache.find_or_add c "k" (fun () -> 7) in
  check "retry is a miss" false hit;
  check_int "retry builds" 7 v

(* ------------------------------------------------------------------ *)
(* scheduler: FIFO order, bounded admission, busy backpressure,
   exception containment, drain on shutdown *)

let test_scheduler_busy_and_order () =
  let sched = Scheduler.create ~capacity:1 () in
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let gate_open = ref false in
  let blocker ~queue_ns:_ =
    Mutex.lock gate_m;
    while not !gate_open do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m;
    Json.Obj [ ("ok", Json.Bool true); ("job", Json.Int 0) ]
  in
  let t1 =
    match Scheduler.submit sched blocker with
    | `Accepted t -> t
    | _ -> Alcotest.fail "first submit must be accepted"
  in
  (* wait for the executor to pick job 1 up, freeing the queue slot *)
  let rec settle n =
    if Scheduler.depth sched > 0 && n > 0 then (Thread.delay 0.01; settle (n - 1))
  in
  settle 200;
  let t2 =
    match
      Scheduler.submit sched (fun ~queue_ns:_ ->
          Json.Obj [ ("ok", Json.Bool true); ("job", Json.Int 2) ])
    with
    | `Accepted t -> t
    | _ -> Alcotest.fail "second submit fills the queue"
  in
  (match Scheduler.submit sched (fun ~queue_ns:_ -> Json.Null) with
  | `Busy -> ()
  | _ -> Alcotest.fail "third submit must be refused: queue is full");
  Mutex.lock gate_m;
  gate_open := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  check_int "job 1 reply" 0
    (Option.get (member_int "job" (Scheduler.wait t1)));
  check_int "job 2 reply (FIFO)" 2
    (Option.get (member_int "job" (Scheduler.wait t2)));
  let executed, rejected, depth = Scheduler.stats sched in
  check_int "executed" 2 executed;
  check_int "rejected" 1 rejected;
  check_int "depth drained" 0 depth;
  Scheduler.shutdown sched;
  (match Scheduler.submit sched (fun ~queue_ns:_ -> Json.Null) with
  | `Shutdown -> ()
  | _ -> Alcotest.fail "submit after shutdown")

let test_scheduler_exception_contained () =
  let sched = Scheduler.create () in
  let t =
    match Scheduler.submit sched (fun ~queue_ns:_ -> failwith "kaboom") with
    | `Accepted t -> t
    | _ -> Alcotest.fail "accepted"
  in
  let reply = Scheduler.wait t in
  check "raising job yields an error reply" false (is_ok reply);
  check_str "internal code" "internal" (Option.get (member_str "error" reply));
  (* the executor survived *)
  let t2 =
    match Scheduler.submit sched (fun ~queue_ns:_ -> Json.Obj [ ("ok", Json.Bool true) ]) with
    | `Accepted t -> t
    | _ -> Alcotest.fail "accepted after exception"
  in
  check "executor still alive" true (is_ok (Scheduler.wait t2));
  Scheduler.shutdown sched

(* ------------------------------------------------------------------ *)
(* live server over a real unix socket *)

let with_server ?(queue = 64) ?log f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-serve-test-%d.sock" (Unix.getpid ()))
  in
  let config =
    {
      (Serve.Server.default_config (Serve.Server.Unix_path path)) with
      Serve.Server.queue_capacity = queue;
      log_path = log;
    }
  in
  let srv = Serve.Server.start config in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop srv)
    (fun () -> f srv (Serve.Server.Unix_path path))

let call addr req = Serve.Client.with_connection addr (fun c -> Serve.Client.call c req)

let solve_req n seed =
  Json.Obj
    [
      ("op", Json.String "solve");
      ("problem", Json.String "so-det");
      ("n", Json.Int n);
      ("seed", Json.Int seed);
    ]

let test_server_solve_and_reply_cache () =
  with_server (fun _srv addr ->
      let r1 = call addr (solve_req 400 5) in
      check "solve ok" true (is_ok r1);
      check "solve valid" true
        (match Json.member "valid" r1 with Some (Json.Bool b) -> b | _ -> false);
      check_str "first is a miss" "miss" (Option.get (member_str "cache" r1));
      let r2 = call addr (solve_req 400 5) in
      check_str "repeat is a hit" "hit" (Option.get (member_str "cache" r2));
      (* field order must not defeat the canonical hash *)
      let permuted =
        Json.Obj
          [
            ("seed", Json.Int 5);
            ("n", Json.Int 400);
            ("problem", Json.String "so-det");
            ("op", Json.String "solve");
          ]
      in
      check_str "permuted fields still hit" "hit"
        (Option.get (member_str "cache" (call addr permuted))))

let test_server_bad_requests () =
  with_server (fun _srv addr ->
      let r = call addr (Json.Obj [ ("n", Json.Int 3) ]) in
      check_str "missing op" "bad-request" (Option.get (member_str "error" r));
      let r = call addr (Json.Obj [ ("op", Json.String "frobnicate") ]) in
      check_str "unknown op" "bad-request" (Option.get (member_str "error" r));
      let r =
        call addr
          (Json.Obj [ ("op", Json.String "solve"); ("problem", Json.String "nope") ])
      in
      check_str "unknown problem" "bad-request" (Option.get (member_str "error" r));
      let r =
        call addr (Json.Obj [ ("op", Json.String "audit"); ("problem", Json.Int 3) ])
      in
      check_str "ill-typed field" "bad-request" (Option.get (member_str "error" r));
      (* errors are not cached: a good request identical to nothing above
         still works, and the bad one stays bad rather than replaying *)
      let r = call addr (Json.Obj [ ("op", Json.String "frobnicate") ]) in
      check "error reply carries no cache field" true
        (member_str "cache" r = None))

(* an unknown-problem error lists exactly the names its op accepts *)
let test_server_unknown_problem_lists_op_names () =
  with_server (fun _srv addr ->
      let message op problem =
        let r =
          call addr
            (Json.Obj [ ("op", Json.String op); ("problem", Json.String problem) ])
        in
        check_str (op ^ " " ^ problem ^ " rejected") "bad-request"
          (Option.get (member_str "error" r));
        Option.get (member_str "message" r)
      in
      check_str "check lists only the SO names"
        {|unknown problem "mis" (try: so-det, so-rand, so-wave)|}
        (message "check" "mis");
      List.iter
        (fun (op, known) ->
          check_str (op ^ " lists its names")
            (Core.Problem.unknown "nope" known)
            (message op "nope"))
        [
          ("check", Core.Problem.check_names);
          ("solve", Core.Problem.solve_names);
          ("audit", Core.Problem.audit_names);
        ])

let test_server_malformed_frame () =
  with_server (fun _srv addr ->
      let path = match addr with Serve.Server.Unix_path p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      write_all fd (header_of_len 7 ^ "not{json");
      let reply =
        match Protocol.read_frame fd with
        | Ok j -> j
        | Error e -> Alcotest.fail (Protocol.decode_error_to_string e)
      in
      Unix.close fd;
      check_str "garbage frame yields structured bad-frame" "bad-frame"
        (Option.get (member_str "error" reply));
      (* and the server is still serving *)
      check "server alive after bad frame" true (is_ok (call addr (solve_req 300 1))))

let test_server_stats_and_audit () =
  with_server (fun srv addr ->
      let r =
        call addr
          (Json.Obj
             [
               ("op", Json.String "audit");
               ("problem", Json.String "so-det");
               ("n", Json.Int 200);
             ])
      in
      check "audit ok" true (is_ok r);
      check "certificate ok" true
        (match Json.member "cert_ok" r with Some (Json.Bool b) -> b | _ -> false);
      let stats = call addr (Json.Obj [ ("op", Json.String "stats") ]) in
      check "stats ok" true (is_ok stats);
      (match Json.member "caches" stats with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "stats must list the caches");
      (* in-process view agrees with the wire view on the request count *)
      let wire_ops = Json.member "requests" stats in
      let local_ops = Json.member "requests" (Serve.Server.stats_json srv) in
      check "stats_json matches the stats op" true
        (Option.map Json.to_string wire_ops <> None
        && Option.map Json.to_string wire_ops = Option.map Json.to_string local_ops))

(* [stats.requests] is built from the clamped request counters: a
   made-up op counts as "other" and never becomes a key of its own *)
let test_server_stats_clamps_unknown_ops () =
  with_server (fun _srv addr ->
      let (_ : Json.t) = call addr (Json.Obj [ ("op", Json.String "zzz") ]) in
      let stats = call addr (Json.Obj [ ("op", Json.String "stats") ]) in
      let requests = Option.get (Json.member "requests" stats) in
      check "unknown op counted as other" true
        (Json.member "other" requests = Some (Json.Int 1));
      check "no key for the made-up op" true
        (Json.member "zzz" requests = None))

(* the per-op size caps: an out-of-range audit [n] or fuzz [count] is
   rejected as a bad request before any work starts, and the daemon
   keeps answering a cheap request normally afterwards *)
let rejected label r =
  check_str label "bad-request" (Option.get (member_str "error" r))

let test_server_audit_size_bound () =
  with_server (fun _srv addr ->
      let audit n =
        Json.Obj
          [
            ("op", Json.String "audit");
            ("problem", Json.String "so-det");
            ("n", Json.Int n);
          ]
      in
      rejected "audit n below 2" (call addr (audit 1));
      rejected "audit n above the cap"
        (call addr (audit 10_001));
      let r = call addr (audit 60) in
      check "cheap audit still answered" true (is_ok r);
      check "its certificate holds" true
        (match Json.member "cert_ok" r with Some (Json.Bool b) -> b | _ -> false))

let test_server_fuzz_count_bound () =
  with_server (fun _srv addr ->
      let fuzz count =
        Json.Obj
          [
            ("op", Json.String "fuzz");
            ("target", Json.String "so");
            ("count", Json.Int count);
          ]
      in
      rejected "fuzz count below 1" (call addr (fuzz 0));
      rejected "fuzz count above the cap"
        (call addr (fuzz 1_001));
      check "cheap fuzz still answered" true (is_ok (call addr (fuzz 3))))

(* two clients interleaving distinct request streams: each reply's
   telemetry must describe only its own request — the deterministic
   solver's counters never leak into the randomized solver's reply and
   vice versa, whatever the arrival order *)
let test_server_two_client_isolation () =
  with_server (fun _srv addr ->
      let telemetry_names reply =
        match Json.member "telemetry" reply with
        | Some (Json.Obj fields) -> List.map fst fields
        | _ -> []
      in
      let run_client problem seeds results =
        Serve.Client.with_connection addr (fun c ->
            results :=
              List.map
                (fun seed ->
                  Serve.Client.call c
                    (Json.Obj
                       [
                         ("op", Json.String "solve");
                         ("problem", Json.String problem);
                         ("n", Json.Int 300);
                         ("seed", Json.Int seed);
                       ]))
                seeds)
      in
      let det_replies = ref [] and rand_replies = ref [] in
      let t1 = Thread.create (fun () -> run_client "so-det" [ 11; 12; 13 ] det_replies) () in
      let t2 = Thread.create (fun () -> run_client "so-rand" [ 11; 12; 13 ] rand_replies) () in
      Thread.join t1;
      Thread.join t2;
      check_int "det client got all replies" 3 (List.length !det_replies);
      check_int "rand client got all replies" 3 (List.length !rand_replies);
      List.iter
        (fun r ->
          check "det reply ok" true (is_ok r);
          let names = telemetry_names r in
          check "det telemetry has det counters" true
            (List.mem "problems.so.det.runs" names);
          check "det telemetry free of rand counters" false
            (List.exists
               (fun n -> String.length n >= 16 && String.sub n 0 16 = "problems.so.rand")
               names))
        !det_replies;
      List.iter
        (fun r ->
          check "rand reply ok" true (is_ok r);
          let names = telemetry_names r in
          check "rand telemetry has rand counters" true
            (List.mem "problems.so.rand.runs" names);
          check "rand telemetry free of det counters" false
            (List.mem "problems.so.det.runs" names))
        !rand_replies)

(* telemetry is a delta over the process registry, so it must not
   depend on what the server answered before: request B's counters
   (outside the schedule-dependent local.pool.* ones) are the same on a
   fresh server and on one that has just answered a different fresh
   request and a bad request *)
let test_server_telemetry_history_independent () =
  let req_b =
    Json.Obj
      [
        ("op", Json.String "solve");
        ("problem", Json.String "so-rand");
        ("n", Json.Int 500);
        ("seed", Json.Int 3);
      ]
  in
  let telemetry reply =
    match Json.member "telemetry" reply with
    | Some (Json.Obj fields) ->
      List.filter
        (fun (name, _) -> not (String.starts_with ~prefix:"local.pool." name))
        fields
    | _ -> []
  in
  let fresh = with_server (fun _srv addr -> telemetry (call addr req_b)) in
  let after_history =
    with_server (fun _srv addr ->
        check "request A ok" true (is_ok (call addr (solve_req 600 4)));
        let bad =
          call addr
            (Json.Obj
               [ ("op", Json.String "solve"); ("problem", Json.String "nope") ])
        in
        check_str "bad request refused" "bad-request"
          (Option.get (member_str "error" bad));
        telemetry (call addr req_b))
  in
  check "B reports telemetry" true
    (List.mem_assoc "problems.so.rand.runs" fresh);
  check_str "B's telemetry is history-independent"
    (Json.to_string (Json.Obj fresh))
    (Json.to_string (Json.Obj after_history))

(* ------------------------------------------------------------------ *)
(* metrics exposition, span trees, cache bypass, request log *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_server_metrics_op () =
  with_server (fun _srv addr ->
      check "warm-up solve ok" true (is_ok (call addr (solve_req 300 3)));
      let r = call addr (Json.Obj [ ("op", Json.String "metrics") ]) in
      check "metrics ok" true (is_ok r);
      check_str "prometheus content type" "text/plain; version=0.0.4"
        (Option.get (member_str "content_type" r));
      let body = Option.get (member_str "body" r) in
      check "solve counter exposed" true
        (contains body "repro_serve_requests_solve 1");
      check "metrics op counts itself" true
        (contains body "repro_serve_requests_metrics");
      check "latency histogram exposed" true
        (contains body "repro_serve_op_solve_latency_ns_bucket");
      check "queue-wait histogram exposed" true
        (contains body "repro_serve_queue_wait_ns_count");
      check "+Inf bucket present" true (contains body "le=\"+Inf\"");
      check "computed gauges present" true
        (contains body "repro_uptime_seconds"
        && contains body "repro_scheduler_queue_depth");
      (* the names list is the checker's ground truth: everything the
         registry knows must have made it into the exposition *)
      (match Json.member "names" r with
      | Some (Json.List names) ->
        check "names nonempty" true (names <> []);
        List.iter
          (fun n ->
            match n with
            | Json.String n ->
              check (Printf.sprintf "name %s appears in body" n) true
                (contains body n)
            | _ -> Alcotest.fail "names must be strings")
          names
      | _ -> Alcotest.fail "metrics reply must carry names");
      (* a made-up op is clamped to "other", not a fresh metric *)
      let (_ : Json.t) = call addr (Json.Obj [ ("op", Json.String "zzz") ]) in
      let r2 = call addr (Json.Obj [ ("op", Json.String "metrics") ]) in
      let body2 = Option.get (member_str "body" r2) in
      check "unknown ops clamp to other" true
        (contains body2 "repro_serve_requests_other 1");
      check "no attacker-named metric" false (contains body2 "zzz"))

(* so-wave runs round-by-round over the frontier wave, so the tree has
   per-round spans (so-det is the centralized BFS solver — no rounds) *)
let spans_req n seed =
  Json.Obj
    [
      ("op", Json.String "solve");
      ("problem", Json.String "so-wave");
      ("n", Json.Int n);
      ("seed", Json.Int seed);
      ("spans", Json.Bool true);
    ]

let reply_spans reply =
  match Json.member "spans" reply with
  | Some (Json.List items) ->
    List.filter_map
      (fun j ->
        match Obs.Trace.event_of_json j with
        | Ok (Obs.Trace.Span s) -> Some s
        | _ -> None)
      items
  | _ -> []

let test_server_span_tree () =
  with_server (fun _srv addr ->
      (* a failed span request first: its aborted recording must not
         leak into the next request's tree *)
      let bad =
        call addr
          (Json.Obj
             [
               ("op", Json.String "solve");
               ("problem", Json.String "nope");
               ("spans", Json.Bool true);
             ])
      in
      check "bad span request is an error" false (is_ok bad);
      let r = call addr (spans_req 400 5) in
      check "span solve ok" true (is_ok r);
      check_str "span request bypasses the cache" "bypass"
        (Option.get (member_str "cache" r));
      let tid =
        match Json.member "trace_id" r with
        | Some (Json.Int t) -> t
        | _ -> Alcotest.fail "reply must carry trace_id"
      in
      let spans = reply_spans r in
      check "spans nonempty" true (spans <> []);
      check "all spans in the reply's trace" true
        (List.for_all (fun s -> s.Obs.Trace.trace_id = tid) spans);
      let labels = List.map (fun s -> s.Obs.Trace.label) spans in
      List.iter
        (fun l -> check (Printf.sprintf "has %s span" l) true (List.mem l labels))
        [
          "serve.solve"; "serve.cache.lookup"; "serve.queue.wait";
          "serve.execute"; "serve.encode"; "serve.artifact.build";
        ];
      check "has per-round engine spans" true
        (List.exists
           (fun l ->
             List.mem l
               [ "flood.round"; "frontier.round"; "wave.round" ])
           labels);
      (* the tree nests: root is serve.solve, execute under root, engine
         rounds under execute's subtree *)
      let events = List.map (fun s -> Obs.Trace.Span s) spans in
      check "span invariants hold" true (Obs.Trace.check_invariants events = []);
      let find l = List.find (fun s -> s.Obs.Trace.label = l) spans in
      let root = find "serve.solve" in
      check_int "serve root has no parent" (-1) root.Obs.Trace.parent;
      check_int "execute under the root" root.Obs.Trace.span_id
        (find "serve.execute").Obs.Trace.parent;
      (* a second span request gets a fresh trace, never a replay *)
      let r2 = call addr (spans_req 400 5) in
      check_str "repeat still bypasses" "bypass"
        (Option.get (member_str "cache" r2));
      let tid2 =
        match Json.member "trace_id" r2 with
        | Some (Json.Int t) -> t
        | _ -> Alcotest.fail "second reply must carry trace_id"
      in
      check "fresh trace id per request" false (tid = tid2);
      check "fresh spans per request" true (reply_spans r2 <> []);
      (* and the plain path is untouched by all this *)
      let plain = call addr (solve_req 400 5) in
      check "plain reply has no spans" true (Json.member "spans" plain = None))

let test_server_log_schema () =
  let log =
    Filename.temp_file "repro-serve-log" ".jsonl"
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with _ -> ())
    (fun () ->
      with_server ~log (fun _srv addr ->
          check "miss ok" true (is_ok (call addr (solve_req 300 9)));
          check "hit ok" true (is_ok (call addr (solve_req 300 9)));
          check "stats ok" true
            (is_ok (call addr (Json.Obj [ ("op", Json.String "stats") ]))));
      (* server stopped: the log is flushed and closed *)
      let ic = open_in log in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "one line per request" 3 (List.length lines);
      let parsed =
        List.map
          (fun l ->
            match Json.of_string l with
            | Ok j -> j
            | Error e -> Alcotest.failf "log line not JSON: %s" e)
          lines
      in
      List.iter
        (fun j ->
          check "line has ts" true (Json.member "ts" j <> None);
          check "line has queue_ms" true
            (match Json.member "queue_ms" j with
            | Some (Json.Float q) -> q >= 0.0
            | _ -> false);
          check "line has trace_id" true
            (match Json.member "trace_id" j with
            | Some (Json.Int t) -> t > 0
            | _ -> false))
        parsed;
      (* trace ids are per-request, never reused *)
      let tids =
        List.filter_map
          (fun j ->
            match Json.member "trace_id" j with
            | Some (Json.Int t) -> Some t
            | _ -> None)
          parsed
      in
      check "distinct trace ids" true
        (List.length (List.sort_uniq compare tids) = List.length tids);
      (* the cache hit never queued *)
      match List.nth parsed 1 with
      | j ->
        check_str "second line is the hit" "hit"
          (Option.get (member_str "cache" j));
        check "hit has zero queue wait" true
          (match Json.member "queue_ms" j with
          | Some (Json.Float q) -> q = 0.0
          | _ -> false))

let suite =
  [
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame eof" `Quick test_frame_eof;
    Alcotest.test_case "frame truncated header" `Quick test_frame_truncated_header;
    Alcotest.test_case "frame truncated payload" `Quick test_frame_truncated_payload;
    Alcotest.test_case "frame oversized" `Quick test_frame_oversized;
    Alcotest.test_case "frame negative length" `Quick test_frame_negative_length;
    Alcotest.test_case "frame garbage payload" `Quick test_frame_garbage_payload;
    Alcotest.test_case "request hash canonical" `Quick test_request_hash_canonical;
    Alcotest.test_case "cache hit/miss/evict" `Quick test_cache_hit_miss_evict;
    Alcotest.test_case "cache failed build" `Quick test_cache_build_failure_not_cached;
    Alcotest.test_case "scheduler busy + fifo" `Quick test_scheduler_busy_and_order;
    Alcotest.test_case "scheduler exception contained" `Quick
      test_scheduler_exception_contained;
    Alcotest.test_case "server solve + reply cache" `Quick
      test_server_solve_and_reply_cache;
    Alcotest.test_case "server bad requests" `Quick test_server_bad_requests;
    Alcotest.test_case "server unknown problem lists op names" `Quick
      test_server_unknown_problem_lists_op_names;
    Alcotest.test_case "server malformed frame" `Quick test_server_malformed_frame;
    Alcotest.test_case "server stats + audit" `Quick test_server_stats_and_audit;
    Alcotest.test_case "server stats clamps unknown ops" `Quick
      test_server_stats_clamps_unknown_ops;
    Alcotest.test_case "server audit size bound" `Quick
      test_server_audit_size_bound;
    Alcotest.test_case "server fuzz count bound" `Quick
      test_server_fuzz_count_bound;
    Alcotest.test_case "server two-client isolation" `Quick
      test_server_two_client_isolation;
    Alcotest.test_case "server telemetry history-independent" `Quick
      test_server_telemetry_history_independent;
    Alcotest.test_case "server metrics exposition" `Quick test_server_metrics_op;
    Alcotest.test_case "server span tree" `Quick test_server_span_tree;
    Alcotest.test_case "server log schema" `Quick test_server_log_schema;
  ]
