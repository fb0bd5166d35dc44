module Json = Repro_obs.Json
module Obs = Repro_obs
module G = Core.Graph.Multigraph
module Instance = Core.Local.Instance
module Meter = Core.Local.Meter
module SO = Core.Problems.Sinkless_orientation
module Problem = Core.Problem
module DC = Core.Lcl.Distributed_check
module GB = Core.Gadget.Build
module GL = Core.Gadget.Labels
module Spec = Core.Padding.Spec
module Hierarchy = Core.Padding.Hierarchy
module Targets = Core.Fuzz.Targets
module Prov = Obs.Provenance

type addr = Unix_path of string | Tcp of string * int

type config = {
  addr : addr;
  queue_capacity : int;
  reply_cache_capacity : int;
  log_path : string option;
}

let default_config addr =
  { addr; queue_capacity = 64; reply_cache_capacity = 256; log_path = None }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  sched : Scheduler.t;
  replies : Json.t Cache.t;
  gadgets : GL.t Cache.t;
  levels : Spec.packed Cache.t;
  instances : G.t Cache.t;
  started : float;
  started_ns : int;
  (* server-lifetime metrics, distinct from the engine counters in
     Registry.default that each reply's telemetry reads: request counts
     per op, per-op latency histograms, queue-wait histogram. Enabled
     from birth; the [metrics] op renders it as Prometheus text and
     [stats] reports its request counts and summarizes its quantiles. *)
  metrics_reg : Obs.Registry.t;
  mutable stopping : bool;
  mutex : Mutex.t; (* guards conns, stopping, log *)
  mutable conns : (int * Unix.file_descr) list;
  mutable next_conn : int;
  mutable threads : Thread.t list;
  log : out_channel option;
  mutable accept_thread : Thread.t option;
}

let locked srv f =
  Mutex.lock srv.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock srv.mutex) f

(* ------------------------------------------------------------------ *)
(* request parsing *)

exception Bad_request of string

let field req name = Json.member name req

let field_int req name ~default =
  match field req name with
  | None | Some Json.Null -> default
  | Some j -> (
    match Json.to_int j with
    | Some i -> i
    | None -> raise (Bad_request (Printf.sprintf "field %S must be an integer" name)))

let field_str req name ~default =
  match field req name with
  | None | Some Json.Null -> default
  | Some j -> (
    match Json.to_str j with
    | Some s -> s
    | None -> raise (Bad_request (Printf.sprintf "field %S must be a string" name)))

let req_str req name =
  match field req name with
  | Some j -> (
    match Json.to_str j with
    | Some s -> s
    | None -> raise (Bad_request (Printf.sprintf "field %S must be a string" name)))
  | None -> raise (Bad_request (Printf.sprintf "missing field %S" name))

let add_fields reply extra =
  match reply with
  | Json.Obj fields -> Json.Obj (fields @ extra)
  | j -> j

(* ------------------------------------------------------------------ *)
(* artifact caches *)

(* builders run under a span so a traced request shows whether its time
   went into constructing the artifact or into the engines; on a cache
   hit the builder never runs and no span appears *)

(* a sinkless-orientation solve on the cached hard graph *)
let solve_sinkless srv (graph, run) ~n ~seed =
  let _, g =
    Cache.find_or_add srv.instances
      (Printf.sprintf "kind=so;n=%d;seed=%d" n seed)
      (fun () ->
        Obs.Span.with_span "serve.artifact.build" (fun () -> graph ~seed ~n))
  in
  run ~seed g

let gadget_family srv ~delta ~height =
  Cache.find_or_add srv.gadgets
    (Printf.sprintf "delta=%d;height=%d" delta height)
    (fun () ->
      Obs.Span.with_span "serve.artifact.build" (fun () ->
          GB.gadget ~delta ~height))

let hierarchy_level srv i =
  Cache.find_or_add srv.levels (Printf.sprintf "level=%d" i) (fun () ->
      Obs.Span.with_span "serve.artifact.build" (fun () -> Hierarchy.level i))

(* ------------------------------------------------------------------ *)
(* op handlers — these run on the scheduler's executor thread, one
   request at a time *)

let sized req =
  let n = field_int req "n" ~default:1000 in
  let seed = field_int req "seed" ~default:1 in
  if n < 2 || n > 2_000_000 then raise (Bad_request "n out of range [2, 2e6]");
  (n, seed)

let unknown problem known = raise (Bad_request (Problem.unknown problem known))

let handle_solve srv req =
  let problem = field_str req "problem" ~default:"so-det" in
  let n, seed = sized req in
  match (Problem.dump problem, Problem.sinkless problem) with
  | Some dump, _ ->
    let solved = dump ~seed ~n in
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.String "solve");
        ("problem", Json.String problem);
        ("n", Json.Int n);
        ("seed", Json.Int seed);
        ("rounds", Json.Int solved.Problem.rounds);
        ("valid", Json.Bool solved.Problem.valid);
        ("output_bytes", Json.Int (String.length solved.Problem.output));
        ( "output_digest",
          Json.String (Digest.to_hex (Digest.string solved.Problem.output)) );
      ]
  | None, Some so ->
    let inst, (out, meter) = solve_sinkless srv so ~n ~seed in
    let g = inst.Instance.graph in
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.String "solve");
        ("problem", Json.String problem);
        ("n", Json.Int (G.n g));
        ("valid", Json.Bool (SO.is_valid g out));
        ("sinks", Json.Int (SO.count_sinks g out));
        ("rounds", Json.Int (Meter.max_radius meter));
      ]
  | None, None -> unknown problem Problem.solve_names

let handle_check srv req =
  let problem = field_str req "problem" ~default:"so-det" in
  let n, seed = sized req in
  match Problem.sinkless problem with
  | None -> unknown problem Problem.check_names
  | Some so ->
    let inst, (out, _) = solve_sinkless srv so ~n ~seed in
    let g = inst.Instance.graph in
    let verdict = DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out in
    let rejecting =
      Array.fold_left (fun acc a -> if a then acc else acc + 1) 0 verdict.DC.accepts
    in
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.String "check");
        ("problem", Json.String problem);
        ("n", Json.Int (G.n g));
        ("all_accept", Json.Bool verdict.DC.all_accept);
        ("rejecting_nodes", Json.Int rejecting);
        ("checker_rounds", Json.Int verdict.DC.rounds);
      ]

(* An audit keeps n + 2m influence bitsets of n bits each and runs a
   BFS from every node, so its cost is quadratic in n; a fuzz run costs
   [count] generated cases. Both are bounded so one request cannot take
   the daemon down. *)
let max_audit_n = 10_000
let max_fuzz_count = 1_000

let handle_audit req =
  let name = req_str req "problem" in
  let n = field_int req "n" ~default:300 in
  let seed = field_int req "seed" ~default:1 in
  if n < 2 || n > max_audit_n then
    raise (Bad_request (Printf.sprintf "n out of range [2, %d]" max_audit_n));
  match Problem.audit name with
  | None -> unknown name Problem.audit_names
  | Some audit ->
    let cert = audit ~seed ~n in
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.String "audit");
        ("problem", Json.String name);
        ("n", Json.Int cert.Prov.c_n);
        ("engine", Json.String cert.Prov.c_engine);
        ("declared", Json.Int cert.Prov.c_declared);
        ("max_influence_radius", Json.Int cert.Prov.c_max_influence_radius);
        ("violations", Json.Int (List.length cert.Prov.c_violations));
        ("cert_ok", Json.Bool cert.Prov.c_ok);
      ]

let handle_fuzz req =
  let name = req_str req "target" in
  let count = field_int req "count" ~default:50 in
  let seed = field_int req "seed" ~default:1 in
  if count < 1 || count > max_fuzz_count then
    raise
      (Bad_request (Printf.sprintf "count out of range [1, %d]" max_fuzz_count));
  match Targets.find name with
  | None ->
    raise
      (Bad_request
         (Printf.sprintf "unknown fuzz target %S (try: %s)" name
            (String.concat ", " Targets.names)))
  | Some target ->
    let report = Targets.run target ~count ~seed in
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.String "fuzz");
        ("target", Json.String name);
        ("report", Targets.json_of_report report);
      ]

let handle_bench srv req =
  let target = field_str req "target" ~default:"gadget" in
  match target with
  | "gadget" ->
    let delta = field_int req "delta" ~default:3 in
    let height = field_int req "height" ~default:6 in
    if delta < 3 || delta > 8 then raise (Bad_request "delta out of range [3, 8]");
    if height < 1 || height > 12 then
      raise (Bad_request "height out of range [1, 12]");
    let hit, labels = gadget_family srv ~delta ~height in
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.String "bench");
        ("target", Json.String "gadget");
        ("delta", Json.Int delta);
        ("height", Json.Int height);
        ("nodes", Json.Int (G.n labels.GL.graph));
        ("artifact_cache", Json.String (if hit then "hit" else "miss"));
      ]
  | "level" ->
    let i = field_int req "i" ~default:1 in
    if i < 0 || i > 6 then raise (Bad_request "i out of range [0, 6]");
    let hit, packed = hierarchy_level srv i in
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("op", Json.String "bench");
        ("target", Json.String "level");
        ("i", Json.Int i);
        ("name", Json.String (Spec.packed_name packed));
        ("artifact_cache", Json.String (if hit then "hit" else "miss"));
      ]
  | other ->
    raise
      (Bad_request (Printf.sprintf "unknown bench target %S (try: gadget, level)" other))

let handle srv op req =
  match op with
  | "solve" -> handle_solve srv req
  | "check" -> handle_check srv req
  | "audit" -> handle_audit req
  | "fuzz" -> handle_fuzz req
  | "bench" -> handle_bench srv req
  | other -> raise (Bad_request (Printf.sprintf "unknown op %S" other))

(* metric names are clamped to the known op set so a client sending
   made-up ops cannot grow the metrics registry, nor the [stats] reply
   built from it, without bound *)
let known_ops = [ "solve"; "check"; "audit"; "fuzz"; "bench"; "stats"; "metrics" ]
let metric_op op = if List.mem op known_ops then op else "other"
let requests_prefix = "serve.requests."

(* timestamps the connection thread collected before handing off; the
   executor turns them into spans. Connection threads never record
   spans themselves — the recorder is single-mutator by contract. *)
type span_ctx = {
  sc_arrival_ns : int;  (** request decoded, before the cache probe *)
  sc_probe_start_ns : int;
  sc_probe_stop_ns : int;  (** around the reply-cache [mem] probe *)
  sc_submit_ns : int;  (** just before [Scheduler.submit] *)
}

(* run one admitted request. The single executor runs it alone, so its
   telemetry is the change in the process registry's counters across
   it, and on failure only this request's spans are aborted. *)
let run_request srv op req ~queue_ns ~trace_id ~span_ctx =
  Obs.Histogram.observe
    (Obs.Registry.histogram srv.metrics_reg "serve.queue.wait_ns")
    queue_ns;
  Obs.Registry.enable ();
  let base = Obs.Registry.counters () in
  let telemetry_fields () =
    let telemetry =
      List.map (fun (name, d) -> (name, Json.Int d)) (Obs.Registry.deltas base)
    in
    [ ("telemetry", Json.Obj telemetry) ]
  in
  match span_ctx with
  | None -> (
    match handle srv op req with
    | reply -> add_fields reply (telemetry_fields ())
    | exception Bad_request msg ->
      Protocol.error_reply ~code:"bad-request" msg
    | exception e ->
      Protocol.error_reply ~code:"internal" (Printexc.to_string e))
  | Some sc -> (
    let (_ : int) = Obs.Span.arm ~trace_id () in
    match
      (* root backdated to arrival so queue wait and the cache probe
         sit inside it; both were measured on the connection thread *)
      let root = Obs.Span.enter ~start_ns:sc.sc_arrival_ns ("serve." ^ op) in
      let (_ : int) =
        Obs.Span.record ~label:"serve.cache.lookup"
          ~start_ns:sc.sc_probe_start_ns ~stop_ns:sc.sc_probe_stop_ns ()
      in
      let (_ : int) =
        Obs.Span.record ~label:"serve.queue.wait" ~start_ns:sc.sc_submit_ns
          ~stop_ns:(sc.sc_submit_ns + queue_ns) ()
      in
      let reply =
        Obs.Span.with_span "serve.execute" (fun () -> handle srv op req)
      in
      (* reference encoding: write_frame re-encodes the (augmented)
         reply later, this measures the dominant cost and its size *)
      let e0 = Obs.Clock.now_ns () in
      let bytes = String.length (Json.to_string reply) in
      let e1 = Obs.Clock.now_ns () in
      let (_ : int) =
        Obs.Span.record ~label:"serve.encode" ~start_ns:e0 ~stop_ns:e1
          ~kvs:[ ("bytes", bytes) ] ()
      in
      Obs.Span.exit root;
      reply
    with
    | reply ->
      let spans = Obs.Span.take () in
      add_fields reply
        (telemetry_fields ()
        @ [
            ("trace_id", Json.Int trace_id);
            ( "spans",
              Json.List
                (List.map
                   (fun s -> Obs.Trace.event_to_json (Obs.Trace.Span s))
                   spans) );
          ])
    | exception Bad_request msg ->
      Obs.Span.abort ();
      Protocol.error_reply ~code:"bad-request" msg
    | exception e ->
      Obs.Span.abort ();
      Protocol.error_reply ~code:"internal" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* stats and metrics — answered inline by connection threads: read-only *)

let ns_to_ms ns = ns /. 1e6

(* per-op latency summaries from the lifetime histograms; quantiles are
   power-of-two-bucket estimates (see Histogram.quantile) *)
let latency_json srv =
  List.filter_map
    (fun (name, snap) ->
      if snap.Obs.Histogram.count = 0 then None
      else
        let q p = Json.Float (ns_to_ms (Obs.Histogram.quantile snap p)) in
        Some
          ( name,
            Json.Obj
              [
                ("count", Json.Int snap.Obs.Histogram.count);
                ( "mean_ms",
                  Json.Float
                    (ns_to_ms
                       (float_of_int snap.Obs.Histogram.sum
                       /. float_of_int snap.Obs.Histogram.count)) );
                ("p50_ms", q 0.5);
                ("p90_ms", q 0.9);
                ("p99_ms", q 0.99);
              ] ))
    (Obs.Registry.histograms ~reg:srv.metrics_reg ())

let stats_json srv =
  let executed, rejected, depth = Scheduler.stats srv.sched in
  let ops =
    let p = String.length requests_prefix in
    List.filter_map
      (fun (name, k) ->
        if String.starts_with ~prefix:requests_prefix name then
          Some (String.sub name p (String.length name - p), Json.Int k)
        else None)
      (Obs.Registry.counters ~reg:srv.metrics_reg ())
  in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String "stats");
      ("uptime_s", Json.Float (Unix.gettimeofday () -. srv.started));
      ("requests", Json.Obj ops);
      ("latency", Json.Obj (latency_json srv));
      ( "scheduler",
        Json.Obj
          [
            ("executed", Json.Int executed);
            ("rejected", Json.Int rejected);
            ("depth", Json.Int depth);
          ] );
      ( "caches",
        Json.List
          [
            Cache.stats_json srv.replies;
            Cache.stats_json srv.gadgets;
            Cache.stats_json srv.levels;
            Cache.stats_json srv.instances;
          ] );
    ]

(* Prometheus text exposition of the lifetime registry plus two computed
   gauges; [names] lets a checker assert nothing registered went missing
   from [body] without re-implementing the renderer *)
let metrics_json srv =
  let uptime =
    float_of_int (max 0 (Obs.Clock.now_ns () - srv.started_ns)) /. 1e9
  in
  let gauges =
    [
      ("uptime_seconds", uptime);
      ("scheduler_queue_depth", float_of_int (Scheduler.depth srv.sched));
    ]
  in
  let body = Obs.Expo.render ~gauges srv.metrics_reg in
  let name n = Json.String (Obs.Expo.metric_name ~namespace:"repro" n) in
  let names =
    List.map (fun (g, _) -> name g) gauges
    @ List.map (fun (n, _) -> name n) (Obs.Registry.counters ~reg:srv.metrics_reg ())
    @ List.map (fun (n, _) -> name n) (Obs.Registry.histograms ~reg:srv.metrics_reg ())
  in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("op", Json.String "metrics");
      ("content_type", Json.String "text/plain; version=0.0.4");
      ("names", Json.List names);
      ("body", Json.String body);
    ]

(* ------------------------------------------------------------------ *)
(* per-connection request processing *)

exception Uncacheable of Json.t

(* one JSONL line per request; schema documented in README §serving.
   [queue_ms] is 0 for requests that never reached the scheduler (cache
   hits, inline stats/metrics, busy rejections); [trace_id] is assigned
   to every request so lines join against span dumps even when the
   client did not ask for spans. *)
let log_line srv ~op ~cache ~queue_ms ~trace_id ~elapsed_s reply =
  match srv.log with
  | None -> ()
  | Some oc ->
    let ok = match Json.member "ok" reply with Some (Json.Bool b) -> b | _ -> false in
    let err =
      match Json.member "error" reply with Some (Json.String e) -> [ ("error", Json.String e) ] | _ -> []
    in
    let line =
      Json.Obj
        ([
           ("ts", Json.Float (Unix.gettimeofday ()));
           ("op", Json.String op);
           ("ok", Json.Bool ok);
           ("cache", Json.String cache);
           ("ms", Json.Float (elapsed_s *. 1000.));
           ("queue_ms", Json.Float queue_ms);
           ("trace_id", Json.Int trace_id);
         ]
        @ err)
    in
    locked srv (fun () ->
        output_string oc (Json.to_string line);
        output_char oc '\n';
        flush oc)

let process srv req =
  let op =
    match Json.member "op" req with
    | None -> Error "missing field \"op\""
    | Some j -> (
      match Json.to_str j with
      | Some op -> Ok op
      | None -> Error "field \"op\" must be a string")
  in
  match op with
  | Error msg -> Protocol.error_reply ~code:"bad-request" msg
  | Ok op ->
    Obs.Counter.incr
      (Obs.Registry.counter srv.metrics_reg (requests_prefix ^ metric_op op));
    let t0 = Unix.gettimeofday () in
    let arrival_ns = Obs.Clock.now_ns () in
    let trace_id = Obs.Span.fresh_trace_id () in
    let want_spans =
      match field req "spans" with Some (Json.Bool true) -> true | _ -> false
    in
    let cache_status = ref "none" in
    (* written by the executor inside the job, read here after wait — the
       ticket hand-off orders the two; stays 0 when no job ran *)
    let queue_ns_cell = ref 0 in
    let submit_run ~span_ctx =
      match
        Scheduler.submit srv.sched (fun ~queue_ns ->
            queue_ns_cell := queue_ns;
            run_request srv op req ~queue_ns ~trace_id ~span_ctx)
      with
      | `Busy ->
        raise
          (Uncacheable
             (Protocol.error_reply ~code:"busy"
                "admission queue full, retry later"))
      | `Shutdown ->
        raise
          (Uncacheable
             (Protocol.error_reply ~code:"shutting-down"
                "server is shutting down"))
      | `Accepted ticket -> Scheduler.wait ticket
    in
    let reply =
      if op = "stats" then stats_json srv
      else if op = "metrics" then metrics_json srv
      else if want_spans then begin
        (* a span request bypasses the reply cache on both sides: a
           cached reply would carry another request's trace, and storing
           this one would replay its trace to later callers. The probe is
           timed so the trace still shows where a cache hit would have
           been decided. *)
        cache_status := "bypass";
        let hash = Protocol.request_hash req in
        let p0 = Obs.Clock.now_ns () in
        let (_ : bool) = Cache.mem srv.replies hash in
        let p1 = Obs.Clock.now_ns () in
        let span_ctx =
          Some
            {
              sc_arrival_ns = arrival_ns;
              sc_probe_start_ns = p0;
              sc_probe_stop_ns = p1;
              sc_submit_ns = Obs.Clock.now_ns ();
            }
        in
        match submit_run ~span_ctx with
        | reply -> add_fields reply [ ("cache", Json.String "bypass") ]
        | exception Uncacheable reply -> reply
      end
      else begin
        (* reply cache first: a hit never touches the scheduler. Errors
           and busy replies propagate as Uncacheable so they are never
           stored. *)
        let hash = Protocol.request_hash req in
        match
          Cache.find_or_add srv.replies hash (fun () ->
              let reply = submit_run ~span_ctx:None in
              match Json.member "ok" reply with
              | Some (Json.Bool true) -> reply
              | _ -> raise (Uncacheable reply))
        with
        | hit, reply ->
          cache_status := (if hit then "hit" else "miss");
          add_fields reply [ ("cache", Json.String !cache_status) ]
        | exception Uncacheable reply -> reply
      end
    in
    Obs.Histogram.observe
      (Obs.Registry.histogram srv.metrics_reg
         ("serve.op." ^ metric_op op ^ ".latency_ns"))
      (max 0 (Obs.Clock.now_ns () - arrival_ns));
    log_line srv ~op ~cache:!cache_status
      ~queue_ms:(float_of_int !queue_ns_cell /. 1e6)
      ~trace_id
      ~elapsed_s:(Unix.gettimeofday () -. t0)
      reply;
    reply

let connection_loop srv fd =
  let rec loop () =
    match Protocol.read_frame fd with
    | Error Protocol.Eof -> ()
    | Error err ->
      (* malformed frame: reply with a structured error, then close — the
         stream position is unrecoverable after a framing error *)
      (try
         Protocol.write_frame fd
           (Protocol.error_reply ~code:"bad-frame"
              (Protocol.decode_error_to_string err))
       with _ -> ())
    | Ok req ->
      let reply = process srv req in
      let sent = try Protocol.write_frame fd reply; true with _ -> false in
      if sent then loop ()
  in
  (try loop () with _ -> ())

let handle_connection srv cid fd =
  Fun.protect
    ~finally:(fun () ->
      let still_mine =
        locked srv (fun () ->
            let mine = List.mem_assoc cid srv.conns in
            srv.conns <- List.remove_assoc cid srv.conns;
            mine)
      in
      if still_mine then try Unix.close fd with _ -> ())
    (fun () -> connection_loop srv fd)

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let bind_listen addr =
  let fd, sockaddr =
    match addr with
    | Unix_path path ->
      (try Unix.unlink path with _ -> ());
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (fd, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  in
  (try Unix.bind fd sockaddr
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  Unix.listen fd 16;
  fd

let accept_loop srv =
  let continue = ref true in
  while !continue do
    match Unix.accept srv.listen_fd with
    | fd, _ ->
      let admitted =
        locked srv (fun () ->
            if srv.stopping then false
            else begin
              let cid = srv.next_conn in
              srv.next_conn <- cid + 1;
              srv.conns <- (cid, fd) :: srv.conns;
              let th = Thread.create (fun () -> handle_connection srv cid fd) () in
              srv.threads <- th :: srv.threads;
              true
            end)
      in
      if not admitted then ( try Unix.close fd with _ -> ())
    | exception Unix.Unix_error _ -> continue := false
    | exception _ -> continue := false
  done

let start config =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let listen_fd = bind_listen config.addr in
  let srv =
    {
      config;
      listen_fd;
      sched = Scheduler.create ~capacity:config.queue_capacity ();
      replies = Cache.create ~capacity:config.reply_cache_capacity "replies";
      gadgets = Cache.create ~capacity:16 "gadgets";
      levels = Cache.create ~capacity:8 "levels";
      instances = Cache.create ~capacity:32 "instances";
      started = Unix.gettimeofday ();
      started_ns = Obs.Clock.now_ns ();
      metrics_reg =
        (let reg = Obs.Registry.create () in
         Obs.Registry.enable ~reg ();
         reg);
      stopping = false;
      mutex = Mutex.create ();
      conns = [];
      next_conn = 0;
      threads = [];
      log = Option.map open_out config.log_path;
      accept_thread = None;
    }
  in
  srv.accept_thread <- Some (Thread.create accept_loop srv);
  srv

let stop srv =
  let first =
    locked srv (fun () ->
        if srv.stopping then false
        else begin
          srv.stopping <- true;
          true
        end)
  in
  if first then begin
    (* shutdown (not just close) kicks the accept thread out of accept(2):
       on Linux, close of an fd another thread is blocked on does not wake
       the blocked call *)
    (try Unix.shutdown srv.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close srv.listen_fd with _ -> ());
    (match srv.accept_thread with Some th -> Thread.join th | None -> ());
    (* drain every admitted request so connected clients get their reply *)
    Scheduler.shutdown srv.sched;
    (* now unblock connection threads still waiting on idle clients *)
    let fds = locked srv (fun () -> srv.conns) in
    List.iter
      (fun (cid, fd) ->
        let mine =
          locked srv (fun () ->
              let m = List.mem_assoc cid srv.conns in
              srv.conns <- List.remove_assoc cid srv.conns;
              m)
        in
        if mine then begin
          (* shutdown (not just close) wakes a thread blocked in read *)
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
          try Unix.close fd with _ -> ()
        end)
      fds;
    List.iter Thread.join (locked srv (fun () -> srv.threads));
    (match srv.log with Some oc -> ( try close_out oc with _ -> ()) | None -> ());
    match srv.config.addr with
    | Unix_path path -> ( try Unix.unlink path with _ -> ())
    | Tcp _ -> ()
  end

let run config =
  (* Sys.Signal_handle does not cut it here: with worker threads parked in
     accept(2)/read(2), the OS can deliver the signal to one of them and
     the handler never reaches a safe point. Blocking the signals BEFORE
     spawning any thread (the mask is inherited) and parking the main
     thread in [Thread.wait_signal] is race-free by construction. *)
  let signals = [ Sys.sigterm; Sys.sigint ] in
  let (_ : int list) = Thread.sigmask Unix.SIG_BLOCK signals in
  let srv = start config in
  let (_ : int) = Thread.wait_signal signals in
  stop srv;
  let (_ : int list) = Thread.sigmask Unix.SIG_UNBLOCK signals in
  ()
