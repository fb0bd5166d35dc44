(* The serve-mix workload: an in-process daemon on a unix socket at pool
   size 1, driven as a closed loop by two client connections (one thread
   each; a client sends its next request when the previous reply
   arrives). Three requests in four are fresh-seed and run the engines;
   the fourth repeats one of the client's recent requests exactly, so it
   reads the reply cache that the misses wrote.

   Traced pass: after every fresh request the client sends a twin — the
   same kind with another fresh seed and ["spans": true] — and reduces
   the span tree that comes back. The server's executor owns the span
   recorder, so the benchmark never arms it here. Twins bypass the reply
   cache, so the cache figures come from the untraced requests only. *)

module Obs = Core.Obs
module Json = Obs.Json
module Pool = Core.Local.Pool
module Server = Repro_serve.Server
module Client = Repro_serve.Client

let clients = 2
let pool = 1

(* a set-up takes milliseconds here, so more of them steady the median *)
let setup_reps = 9

(* every fourth request repeats a recent one: 25% repeats *)
let repeat_every = 4

(* repeats draw from this many most recent fresh requests per client, so
   both clients' windows fit the reply cache (capacity 256) together *)
let window = 64

let o fields = Json.Obj fields
let s v = Json.String v
let i v = Json.Int v

(* the fresh-request kinds, taken in turn; each takes an instance seed *)
let kinds ~quick =
  let big = if quick then 1_000 else 10_000
  and cat = if quick then 400 else 2_000
  and aud = if quick then 100 else 300 in
  let solve p n seed =
    [ ("op", s "solve"); ("problem", s p); ("n", i n); ("seed", i seed) ]
  in
  [|
    solve "so-det" big;
    solve "so-rand" big;
    solve "so-wave" big;
    (fun seed -> [ ("op", s "check"); ("problem", s "so-det"); ("n", i big); ("seed", i seed) ]);
    solve "mis" cat;
    solve "luby-mis" cat;
    solve "coloring" cat;
    solve "flood" cat;
    solve "dcheck" cat;
    (fun seed -> [ ("op", s "audit"); ("problem", s "so-det"); ("n", i aud); ("seed", i seed) ]);
  |]

let str req name = Option.bind (Json.member name req) Json.to_str
let int reply name = Option.bind (Json.member name reply) Json.to_int

(* why a reply is wrong, if it is: ok must be true, and every verdict the
   op returns (valid / all_accept / cert_ok) must hold; a wave solve must
   come back sinkless *)
let failures req reply =
  let flag name =
    match Json.member name reply with
    | None | Some (Json.Bool true) -> []
    | Some _ -> [ name ^ " is not true" ]
  in
  let ok =
    match Json.member "ok" reply with
    | Some (Json.Bool true) -> []
    | _ ->
      [
        Printf.sprintf "%s/%s: %s"
          (Option.value ~default:"?" (str req "op"))
          (Option.value ~default:"?" (str req "problem"))
          (Option.value ~default:"not ok" (str reply "error"));
      ]
  in
  let sinkless =
    if str req "op" = Some "solve" && str req "problem" = Some "so-wave"
       && int reply "sinks" <> Some 0
    then [ "so-wave reply has sinks" ]
    else []
  in
  ok @ flag "valid" @ flag "all_accept" @ flag "cert_ok" @ sinkless

type sample = {
  rtt : float;  (** seconds, client side *)
  req : Json.t;
  reply : Json.t;
  twin : bool;  (** a traced twin, not part of the mix *)
  fresh : bool;
}

(* one client's closed loop until [deadline] *)
let client_loop ~quick ~seed ~trace ~plant ~deadline c conn =
  let kinds = kinds ~quick in
  let rng = Random.State.make [| seed; c |] in
  let recent = Array.make window (Json.Null) and fresh_count = ref 0 in
  let samples = ref [] and k = ref 0 in
  let next_seed () =
    incr k;
    Runner.op_seed ~seed ((c * 100_000_000) + !k)
  in
  let call ~twin ~fresh req =
    let t0 = Report.now () in
    let reply = Client.call conn req in
    samples := { rtt = Report.now () -. t0; req; reply; twin; fresh } :: !samples
  in
  let step = ref 0 in
  while Report.now () < deadline do
    incr step;
    if plant && c = 0 && !step = 1 then
      (* the planted bad op: a request no handler accepts *)
      call ~twin:false ~fresh:true (o [ ("op", s "solve"); ("problem", s "no-such-problem") ])
    else if !step mod repeat_every = 0 then
      let j = Random.State.int rng (min window !fresh_count) in
      call ~twin:false ~fresh:false recent.(j)
    else begin
      (* kinds in turn, each client from its own offset: the mix is the
         same on every run, only the instances change with the seed *)
      let kind = kinds.((!fresh_count + (c * 5)) mod Array.length kinds) in
      let req = o (kind (next_seed ())) in
      call ~twin:false ~fresh:true req;
      recent.(!fresh_count mod window) <- req;
      incr fresh_count;
      if trace then
        call ~twin:true ~fresh:true
          (o (kind (next_seed ()) @ [ ("spans", Json.Bool true) ]))
    end
  done;
  !samples

let artifact_hit_ratio srv =
  match Json.member "caches" (Server.stats_json srv) with
  | Some (Json.List caches) ->
    let hits, total =
      List.fold_left
        (fun (h, t) cache ->
          if str cache "name" = Some "replies" then (h, t)
          else
            let get f = Option.value ~default:0 (int cache f) in
            (h + get "hits", t + get "hits" + get "misses"))
        (0, 0) caches
    in
    if total = 0 then 0. else float_of_int hits /. float_of_int total
  | _ -> 0.

let spans_of reply =
  match Json.member "spans" reply with
  | Some (Json.List evs) ->
    List.filter_map
      (fun ev ->
        match Obs.Trace.event_of_json ev with
        | Ok (Obs.Trace.Span sp) -> Some sp
        | _ -> None)
      evs
  | _ -> []

let run ~quick ~seed ~seconds ~trace ~plant =
  let t = Runner.tally () in
  let check req reply = Runner.record t (failures req reply) in
  if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
  let addr = Server.Unix_path (Printf.sprintf "_perfbench/serve-%d.sock" (Unix.getpid ())) in
  let kinds = kinds ~quick in
  (* set-up: pool at size 1, bind, connect both clients, one warm-up
     request; repeated, each time from a fresh server *)
  let state = ref None in
  let teardown () =
    match !state with
    | None -> ()
    | Some (srv, conns) ->
      List.iter Client.close conns;
      Server.stop srv;
      state := None
  in
  let setups =
    List.init setup_reps (fun r ->
        let t0 = if r = 0 then Report.process_start else Report.now () in
        teardown ();
        Pool.shutdown ();
        Pool.set_size pool;
        let srv = Server.start (Server.default_config addr) in
        let conns = List.init clients (fun _ -> Client.connect addr) in
        state := Some (srv, conns);
        let req = o (kinds.(0) (Runner.op_seed ~seed (-1 - r))) in
        (try check req (Client.call (List.hd conns) req)
         with e -> check req (Json.Obj [ ("error", s (Printexc.to_string e)) ]));
        Report.now () -. t0)
  in
  let srv, conns = Option.get !state in
  Fun.protect ~finally:teardown @@ fun () ->
  let m0 = Gc.minor_words () in
  let t_begin = Report.now () in
  let deadline = t_begin +. float_of_int seconds in
  let results = Array.make clients [] and errors = Array.make clients [] in
  let threads =
    List.mapi
      (fun c conn ->
        Thread.create
          (fun () ->
            try results.(c) <- client_loop ~quick ~seed ~trace ~plant ~deadline c conn
            with e -> errors.(c) <- [ "client: " ^ Printexc.to_string e ])
          ())
      conns
  in
  List.iter Thread.join threads;
  let minor = Gc.minor_words () -. m0 in
  Array.iter (List.iter (fun e -> Runner.record t [ e ])) errors;
  let all = List.concat (Array.to_list results) in
  List.iter (fun sm -> check sm.req sm.reply) all;
  let mix = List.filter (fun sm -> not sm.twin) all in
  let twins = List.filter (fun sm -> sm.twin) all in
  let ms l = List.map (fun sm -> sm.rtt *. 1e3) l in
  let rounds problem =
    Report.mean
      (List.filter_map
         (fun sm ->
           if str sm.req "op" = Some "solve" && str sm.req "problem" = Some problem then
             Option.map float_of_int (int sm.reply "rounds")
           else None)
         mix)
  in
  let wall = Report.now () -. t_begin in
  let nodes = List.fold_left (fun a sm -> a + Option.value ~default:0 (int sm.reply "n")) 0 mix in
  let cache_is v sm = str sm.reply "cache" = Some v in
  let count p l = List.length (List.filter p l) in
  let metrics =
    if not trace then
      [
        ("setup_s", Report.median setups, "s");
        ("op_p50_ms", Report.median (ms mix), "ms");
        ("op_p99_ms", Report.tail (ms mix), "ms");
        ("nodes_per_s", float_of_int nodes /. wall, "1/s");
        ("requests_per_s", float_of_int (List.length mix) /. wall, "1/s");
        ("rounds_det", rounds "so-det", "rounds");
        ("rounds_rand", rounds "so-rand", "rounds");
        ("peak_rss_mb", Report.peak_rss_mb (), "MB");
      ]
    else begin
      let acc = Layers.acc () in
      let waits = ref [] in
      List.iter
        (fun sm ->
          let t0 = Obs.Clock.now_ns () in
          let spans = spans_of sm.reply in
          let r = Layers.reduce spans in
          Layers.absorb acc r ~dropped:r.Layers.orphans;
          List.iter
            (fun (sp : Obs.Trace.span) ->
              if sp.label = "serve.queue.wait" then
                waits := (float_of_int (Layers.duration sp) /. 1e6) :: !waits)
            spans;
          acc.Layers.a_obs_ns <- acc.Layers.a_obs_ns + (Obs.Clock.now_ns () - t0);
          acc.Layers.a_ops <- acc.Layers.a_ops + 1)
        twins;
      let hits = count (cache_is "hit") mix and misses = count (cache_is "miss") mix in
      let fresh = List.filter (fun sm -> sm.fresh) mix in
      Layers.metrics acc
        ~overrides:
          [
            ("serve.queue_wait_p50_ms", Report.median !waits);
            ("serve.queue_wait_p99_ms", Report.quantile 0.99 !waits);
            ( "serve.reply_hit_ratio",
              if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses) );
            ("serve.artifact_hit_ratio", artifact_hit_ratio srv);
            ( "serve.busy_replies",
              float_of_int (count (fun sm -> str sm.reply "error" = Some "busy") all) );
            (* whole process per request: every thread runs on one domain *)
            ("serve.minor_kw", minor /. float_of_int (max 1 (List.length all)) /. 1e3);
            ( "obs.trace_overhead_ratio",
              let f = Report.median (ms fresh) in
              if f = 0. then 0. else Report.median (ms twins) /. f );
          ]
    end
  in
  let notes =
    [
      Printf.sprintf "closed loop: %d clients, %d mix requests (%d repeats), %d traced twins"
        clients (List.length mix)
        (count (fun sm -> not sm.fresh) mix)
        (List.length twins);
    ]
  in
  {
    Report.attempted = t.Runner.attempted;
    failed = t.Runner.failed;
    failures = t.Runner.reasons;
    ops = List.length mix;
    metrics;
    notes;
  }
