(* The wall-clock bench: times every leg sequentially (pool size 1) and
   in parallel (the configured pool size), records its allocation and
   dispatch telemetry, runs the serve leg, and writes BENCH_parallel.json
   in the current directory — the perf trajectory that check_bench
   gates. The paper's figures are `repro experiment all`.

   Timing: [pairs] alternating seq/par pairs per leg. Each side of a pair
   sets the pool size, runs the leg once untimed, then keeps the fastest
   of the runs that fit in [quota]. A leg reports the median seq and par
   times, the median of its pair ratios par/seq, and their interquartile
   spread.

   Usage: main.exe [--quick] [--filter NAME]
     --quick          shrink instances, pairs and quotas (the `dune
                      runtest` smoke invocation)
     --filter NAME    measure only the cases whose name contains NAME
                      (substring match); prints to the console only —
                      the serve leg and the JSON file are skipped, so a
                      filtered run never clobbers the trajectory. A
                      NAME matching no case exits non-zero.
   The parallel pool size is Pool.size (): REPRO_DOMAINS, else the core
   count. *)

module G = Core.Graph.Multigraph
module Instance = Core.Local.Instance
module Pool = Core.Local.Pool
module SO = Core.Problems.Sinkless_orientation
module GB = Core.Gadget.Build
module GC = Core.Gadget.Check
module GL = Core.Gadget.Labels
module V = Core.Gadget.Verifier
module Spec = Core.Padding.Spec
module Pi = Core.Padding.Pi_prime
module PG = Core.Padding.Padded_graph
module H = Core.Padding.Hierarchy
module DC = Core.Lcl.Distributed_check
module MP = Core.Local.Message_passing
module Gen = Core.Graph.Generators
module Mis = Core.Problems.Mis
module Coloring = Core.Problems.Coloring
module Luby = Core.Problems.Luby
module Obs = Core.Obs
module Frontier = Core.Local.Frontier
module Audit = Core.Local.Audit

(* name, instance size, workload; names are stable across PRs (and across
   --quick, which shrinks the instances) so the JSON trajectory lines up.
   [rounds] is the fixed divisor for the per-round allocation columns: the
   communication rounds the workload simulates (1 for one-round checkers
   and non-round workloads), NOT a measured quantity — keeping it constant
   per case makes the per-round numbers comparable across PRs.
   [frontier], when present, names the round-span label whose kvs give
   the per-round active_nodes / frontier_edges / dense_rounds columns
   for the JSON ([round_columns]) — the committed evidence that round
   cost tracks the frontier, not n *)
type case = {
  name : string;
  n : int;
  rounds : int;
  run : unit -> unit;
  frontier : string option;
}

let cases ~quick () =
  let rng = Random.State.make [| 11 |] in
  let n_so = if quick then 600 else 3000 in
  (* the *-h8 gadget legs run at height 8 under --quick too: the
     verifier's node-sized arrays go to the major heap at height 8 but
     not at height 6, so a smaller quick gadget is not comparable per
     node with the full-size baseline *)
  let height = 8 in
  let g3k = SO.hard_instance rng ~n:n_so in
  let inst3k = Instance.create g3k in
  let gadget8 = GB.gadget ~delta:3 ~height in
  let gadget_n = G.n gadget8.GL.graph in
  let so = H.sinkless_orientation in
  let so' = Pi.pad so in
  (* the Π² leg runs at full size under --quick too: at the smaller
     quick targets its per-node minor allocation is 2.6x the full-size
     figure, so a quick run was not comparable per node with the
     full-size baseline *)
  let base_target, gadget_target = (30, 60) in
  let pg, pinp = Pi.hard_instance_parts so rng ~base_target ~gadget_target in
  let pinst = Instance.create pg.PG.padded in
  (* a fixed valid output for the distributed-checker cases, computed once
     so the benchmark measures only the one-round check *)
  let so_out, _ = SO.solve_deterministic inst3k in
  let so_inp = SO.trivial_input g3k in
  (* the frontier leg: a streamed 3-regular hard instance at 10^6 nodes
     (2·10^4 under --quick; the case names stay "-1m" so the JSON
     trajectory lines up, and [n] records the actual size) *)
  let n_front = if quick then 20_000 else 1_000_000 in
  let gfront = SO.hard_instance (Random.State.make [| 17 |]) ~n:n_front in
  let finst = Instance.create ~seed:17 gfront in
  (* the replay leg floods a fixed decaying radius profile over 12
     rounds. Under any flood, node v halts right after round [actual v],
     so the engine's live count at round r is #{v | actual v > r} —
     non-increasing in r by construction. CI's monotone check targets
     exactly this leg's active_nodes column. *)
  let replay_rounds = 12 in
  let replay_alg =
    Audit.flood_algorithm ~actual:(fun v -> 1 + (v * 7919 mod replay_rounds))
  in
  (* the sweep legs: MIS, Luby, coloring and flooding on a simple
     3-regular instance (names stay "-2k" under --quick; [n] records the
     actual size) *)
  let n_sweep = if quick then 400 else 2000 in
  let gsweep =
    Gen.random_simple_regular (Random.State.make [| 23 |]) ~n:n_sweep ~d:3
  in
  let sweepinst = Instance.create ~seed:23 gsweep in
  (* the padded checker at scale: one constraint sweep over a fixed Π²
     deterministic output, n ≈ 1.2·10⁵ (target 3000, n ≈ 5·10³, under
     --quick; the name stays "-120k") *)
  let g_chk, in_chk =
    so'.Spec.hard_instance (Random.State.make [| 1 |])
      ~target:(if quick then 3000 else 100_000)
  in
  let out_chk, _ = so'.Spec.solve_det (Instance.create ~seed:1 g_chk) in_chk in
  [
    {
      name = "ball-gather-r10-3k";
      n = n_so;
      rounds = 10;
      run = (fun () -> ignore (Core.Local.Ball.gather g3k ~center:0 ~radius:10));
      frontier = None;
    };
    {
      name = "so-det-3k";
      n = n_so;
      rounds = 1;
      run = (fun () -> ignore (SO.solve_deterministic inst3k));
      frontier = None;
    };
    {
      name = "so-rand-3k";
      n = n_so;
      rounds = 1;
      run = (fun () -> ignore (SO.solve_randomized inst3k));
      frontier = None;
    };
    {
      name = "gadget-build-h8";
      n = gadget_n;
      rounds = 1;
      run = (fun () -> ignore (GB.gadget ~delta:3 ~height));
      frontier = None;
    };
    {
      name = "gadget-check-h8";
      n = gadget_n;
      rounds = 1;
      run = (fun () -> ignore (GC.is_valid ~delta:3 gadget8));
      frontier = None;
    };
    {
      name = "verifier-h8";
      n = gadget_n;
      rounds = 1;
      run = (fun () -> ignore (V.run ~delta:3 ~n:gadget_n gadget8));
      frontier = None;
    };
    {
      name = "pi2-solve-det";
      n = G.n pg.PG.padded;
      rounds = 1;
      run = (fun () -> ignore (so'.Spec.solve_det pinst pinp));
      frontier = None;
    };
    {
      name = "pi2-check-120k";
      n = G.n g_chk;
      rounds = 1;
      run =
        (fun () ->
          ignore (Spec.is_valid so' g_chk ~input:in_chk ~output:out_chk));
      frontier = None;
    };
    (* the telemetry overhead pair: the same one-round check workload
       with the registry disabled (the gated fast path — this is the
       overhead-when-disabled measurement) and with a live trace, spans
       armed *)
    {
      name = "dcheck-so-3k";
      n = n_so;
      rounds = 1;
      run =
        (fun () ->
          ignore (DC.run SO.problem inst3k ~input:so_inp ~output:so_out));
      frontier = None;
    };
    {
      name = "dcheck-so-3k-traced";
      n = n_so;
      rounds = 1;
      run =
        (fun () ->
          ignore
            (Obs.Trace.record (fun () ->
                 DC.run SO.problem inst3k ~input:so_inp ~output:so_out));
          Obs.Registry.disable ());
      frontier = None;
    };
    (* the same check with its locality certificate: the third leg of
       the overhead story — the audited one-round flood and its radius
       certification vs the gated fast path (dcheck-so-3k) and vs a live
       trace *)
    {
      name = "dcheck-so-3k-audited";
      n = n_so;
      rounds = 1;
      run =
        (fun () ->
          ignore (DC.audited_run SO.problem inst3k ~input:so_inp ~output:so_out));
      frontier = None;
    };
    (* the 1M leg: timed like every other case, plus the per-round
       frontier columns (deterministic, so measured once) *)
    {
      name = "frontier-replay-1m";
      n = n_front;
      rounds = replay_rounds;
      run = (fun () -> ignore (Frontier.run finst replay_alg));
      frontier = Some "frontier.round";
    };
    {
      name = "mis-sweep-2k";
      n = n_sweep;
      rounds = 1;
      run = (fun () -> ignore (Mis.solve sweepinst));
      frontier = None;
    };
    {
      name = "luby-mis-2k";
      n = n_sweep;
      rounds = 1;
      run = (fun () -> ignore (Luby.solve sweepinst));
      frontier = None;
    };
    {
      name = "coloring-2k";
      n = n_sweep;
      rounds = 1;
      run = (fun () -> ignore (Coloring.solve sweepinst));
      frontier = None;
    };
    {
      name = "flood-r3-2k";
      n = n_sweep;
      rounds = 3;
      run = (fun () -> ignore (MP.flood_gather sweepinst ~radius:3 (fun v -> v)));
      frontier = None;
    };
  ]

(* the fastest of the runs that fit in [quota] seconds, after one untimed
   warm-up: Pool.set_size shuts the workers down, and the warm-up's first
   loop respawns them *)
let fastest ~quota ~size case =
  Pool.set_size size;
  case.run ();
  let rec go best spent =
    if spent >= quota then best
    else begin
      let t0 = Unix.gettimeofday () in
      case.run ();
      let dt = Unix.gettimeofday () -. t0 in
      go (Float.min best dt) (spent +. dt)
    end
  in
  go infinity 0.0 *. 1e9

(* nearest-rank quantile of a non-empty sample *)
let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

type timing = {
  seq_ns : float;  (** median of the pairs' seq sides *)
  par_ns : float;  (** median of the pairs' par sides *)
  ratio : float;  (** median of the pairs' par/seq ratios *)
  spread : float;  (** interquartile range of those ratios *)
}

(* even pairs run seq first, odd pairs par first, so a drift in host load
   does not always land on the same side *)
let time_pairs ~pairs ~quota ~domains case =
  let side size = fastest ~quota ~size case in
  let pair i =
    if i mod 2 = 0 then
      let s = side 1 in
      (s, side domains)
    else
      let p = side domains in
      (side 1, p)
  in
  let sides = List.init pairs pair in
  let ratios = List.map (fun (s, p) -> p /. s) sides in
  {
    seq_ns = quantile 0.5 (List.map fst sides);
    par_ns = quantile 0.5 (List.map snd sides);
    ratio = quantile 0.5 ratios;
    spread = quantile 0.75 ratios -. quantile 0.25 ratios;
  }

(* allocation per round, measured on the dispatching domain with the pool
   at size 1 (Gc counters are per-domain, so a multi-domain run would
   undercount); one warm-up run first so one-time caches and pool setup
   don't pollute the delta. Compacting until the live heap stops changing
   (at most 10 times) first makes the promoted column independent of how
   many timed runs came before: what a minor collection promotes depends
   on the heap it starts from *)
let alloc_stats case =
  Pool.set_size 1;
  let rec settle tries live =
    Gc.compact ();
    let live' = (Gc.stat ()).Gc.live_words in
    if live' <> live && tries > 1 then settle (tries - 1) live'
  in
  settle 10 0;
  case.run ();
  let reps = 3 in
  (* Gc.minor_words () (not quick_stat) for the minor column: it is the
     only counter that includes the words sitting un-collected in the
     current young region *)
  let m0 = Gc.minor_words () and s0 = Gc.quick_stat () in
  for _ = 1 to reps do
    case.run ()
  done;
  let m1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  let per_round words =
    words /. float_of_int reps /. float_of_int case.rounds
  in
  ( per_round (m1 -. m0),
    per_round (s1.Gc.promoted_words -. s0.Gc.promoted_words) )

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* --filter NAME: the matching subset, or a hard error when NAME matches
   nothing (a typo must not silently measure zero cases) *)
let filter_cases ~filter cases =
  match filter with
  | None -> cases
  | Some f -> (
    match List.filter (fun c -> contains_substring c.name f) cases with
    | [] ->
      Printf.eprintf "bench: --filter %S matches no case; known cases:\n" f;
      List.iter (fun c -> Printf.eprintf "  %s\n" c.name) cases;
      exit 1
    | kept -> kept)

(* the serve leg: cold-vs-warm requests/s over a live unix-socket server,
   timed over a fixed request mix. The cold mix can only be measured once
   per server lifetime — the reply cache makes every later pass warm by
   definition. The mix is gadget-family-heavy (plus solves and an
   audit), the workloads whose artifacts the content-addressed caches
   exist to amortize. *)
type serve_stats = {
  sv_requests : int;  (** requests in one pass of the mix *)
  sv_cold_ns : float;  (** ns per request, first pass (all misses) *)
  sv_warm_ns : float;  (** ns per request, later passes (all hits) *)
  sv_hits : int;
  sv_misses : int;
  sv_span_n : int;  (** instance size of the span-overhead solves *)
  sv_span_reqs : int;  (** requests per span-overhead pass *)
  sv_disarmed_ns : float;  (** ns per fresh-seed solve, spans disarmed *)
  sv_traced_ns : float;  (** ns per fresh-seed solve, spans recorded *)
}
let bench_serve ~quick () =
  let module Server = Repro_serve.Server in
  let module Client = Repro_serve.Client in
  let path = Filename.temp_file "repro-bench-serve" ".sock" in
  let addr = Server.Unix_path path in
  let srv = Server.start (Server.default_config addr) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let o fields = Obs.Json.Obj fields in
  let s v = Obs.Json.String v and i v = Obs.Json.Int v in
  let gadget h =
    o [ ("op", s "bench"); ("target", s "gadget"); ("delta", i 3); ("height", i h) ]
  in
  let solve n seed =
    o
      [
        ("op", s "solve"); ("problem", s "so-det"); ("n", i n); ("seed", i seed);
      ]
  in
  let audit n =
    o [ ("op", s "audit"); ("problem", s "so-det"); ("n", i n); ("seed", i 1) ]
  in
  let level l = o [ ("op", s "bench"); ("target", s "level"); ("i", i l) ] in
  let mix =
    if quick then
      [ gadget 4; gadget 5; gadget 6; solve 600 1; solve 600 2; audit 200; level 1 ]
    else
      [ gadget 6; gadget 7; gadget 8; solve 2000 1; solve 2000 2; audit 300; level 2 ]
  in
  Client.with_connection addr @@ fun c ->
  let run_mix () =
    List.iter
      (fun req ->
        let reply = Client.call c req in
        match Obs.Json.member "ok" reply with
        | Some (Obs.Json.Bool true) -> ()
        | _ ->
          failwith
            (Printf.sprintf "bench serve: request failed: %s"
               (Obs.Json.to_string reply)))
      mix
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let requests = List.length mix in
  let cold_s = time run_mix in
  let reps = if quick then 5 else 20 in
  let warm_s = time (fun () -> for _ = 1 to reps do run_mix () done) in
  (* span-overhead pair: fresh-seed so-rand solves so every request is a
     reply-cache miss and actually draws its instance and runs the
     solver. One pass with the span pipeline disarmed (plain request),
     one with ["spans": true] (arm + record + encode the full tree).
     disarmed_ns_per_req is the check_bench gate: the disarmed
     instrumentation must stay within 3% of the committed baseline at
     equal span workload. *)
  let span_n = if quick then 400 else 2000 in
  let span_reps = if quick then 4 else 10 in
  let span_solve ?(spans = false) n seed =
    o
      ([
         ("op", s "solve"); ("problem", s "so-rand"); ("n", i n);
         ("seed", i seed);
       ]
      @ if spans then [ ("spans", Obs.Json.Bool true) ] else [])
  in
  let run_span_pass ~spans ~seed0 =
    for k = 1 to span_reps do
      let reply = Client.call c (span_solve ~spans span_n (seed0 + k)) in
      match Obs.Json.member "ok" reply with
      | Some (Obs.Json.Bool true) -> ()
      | _ ->
        failwith
          (Printf.sprintf "bench serve: span-leg request failed: %s"
             (Obs.Json.to_string reply))
    done
  in
  let disarmed_s = time (fun () -> run_span_pass ~spans:false ~seed0:910_000) in
  let traced_s = time (fun () -> run_span_pass ~spans:true ~seed0:920_000) in
  let hits, misses =
    match Obs.Json.member "caches" (Server.stats_json srv) with
    | Some (Obs.Json.List caches) ->
      List.fold_left
        (fun acc cache ->
          match Obs.Json.member "name" cache with
          | Some (Obs.Json.String "replies") ->
            let num f =
              match Option.map Obs.Json.to_int (Obs.Json.member f cache) with
              | Some (Some v) -> v
              | _ -> 0
            in
            (num "hits", num "misses")
          | _ -> acc)
        (0, 0) caches
    | _ -> (0, 0)
  in
  {
    sv_requests = requests;
    sv_cold_ns = cold_s *. 1e9 /. float_of_int requests;
    sv_warm_ns = warm_s *. 1e9 /. float_of_int (reps * requests);
    sv_hits = hits;
    sv_misses = misses;
    sv_span_n = span_n;
    sv_span_reqs = span_reps;
    sv_disarmed_ns = disarmed_s *. 1e9 /. float_of_int span_reps;
    sv_traced_ns = traced_s *. 1e9 /. float_of_int span_reps;
  }

(* observed dispatch economics of the parallel leg: the pool's telemetry
   counters around one run at the parallel pool size. [dispatch_ns] is
   whole-job dispatch wall time; [grain] is chunk_ns / par_idx — the
   measured ns per dispatched index, the figure the ?grain hints
   estimate — null when the dispatch rule kept every loop inline (a
   1-core or oversubscribed host dispatches nothing, which the schema
   records as dispatch_ns 0 / grain null rather than hiding) *)
let dispatch_stats case =
  let was_enabled = Obs.Registry.enabled () in
  Obs.Registry.enable ();
  let base = Obs.Registry.counters () in
  case.run ();
  let delta = Obs.Registry.deltas base in
  if not was_enabled then Obs.Registry.disable ();
  let get name = Option.value ~default:0 (List.assoc_opt name delta) in
  let idx = get "local.pool.par_idx" and chunk_ns = get "local.pool.chunk_ns" in
  ( get "local.pool.dispatch_ns",
    if idx > 0 then Some (float_of_int chunk_ns /. float_of_int idx) else None
  )

(* the per-round frontier columns of one run of [case] with spans
   armed (not Trace.record: the registry stays disabled, so the run pays
   no per-message byte accounting). Each [label] round span is one row:
   active_nodes / frontier_edges / dense_rounds are its [active] /
   [edges] / [dense] kvs, round_ns its wall time (timing only — outside
   the determinism contract, like the pool's chunk times) *)
type frontier_columns = {
  active_nodes : int array;
  frontier_edges : int array;
  dense_rounds : bool array;
  round_ns : int array;
}

let round_columns case label =
  let (_ : int) = Obs.Span.arm () in
  (try case.run ()
   with e ->
     Obs.Span.abort ();
     raise e);
  let rows =
    Array.of_list
      (List.filter (fun s -> s.Obs.Span.label = label) (Obs.Span.take ()))
  in
  let kv key s = Option.value ~default:0 (List.assoc_opt key s.Obs.Span.kvs) in
  {
    active_nodes = Array.map (kv "active") rows;
    frontier_edges = Array.map (kv "edges") rows;
    dense_rounds = Array.map (fun s -> kv "dense" s = 1) rows;
    round_ns = Array.map (fun s -> s.Obs.Span.stop_ns - s.Obs.Span.start_ns) rows;
  }

(* measure every case under pool size 1 and under the configured pool
   size, then (unfiltered) run the serve leg and write BENCH_parallel.json *)
let run ~quick ~filter =
  (* read before the first set_size overrides it *)
  let domains = Pool.size () in
  let pairs, quota = if quick then (5, 0.005) else (9, 0.1) in
  let cases = filter_cases ~filter (cases ~quick ()) in
  let measured =
    List.map
      (fun case ->
        let t = time_pairs ~pairs ~quota ~domains case in
        (* dispatch telemetry and the per-round frontier columns on a
           warm parallel pool, before alloc_stats shrinks it back to 1:
           the columns are taken at the configured pool size, so runs at
           different sizes can confirm they are pool-size independent *)
        Pool.set_size domains;
        case.run ();
        let disp_ns, grain_obs = dispatch_stats case in
        let fstats = Option.map (round_columns case) case.frontier in
        let minor_w, promoted_w = alloc_stats case in
        Printf.printf
          "%-24s n=%-7d seq %12.0f ns/run   par(%d) %12.0f ns/run   par/seq \
           %.3f iqr %.3f   minor %12.1f w/round   dispatch %9d ns   grain %s\n%!"
          case.name case.n t.seq_ns domains t.par_ns t.ratio t.spread minor_w
          disp_ns
          (match grain_obs with
          | Some g -> Printf.sprintf "%.1f ns/idx" g
          | None -> "-");
        (case, t, disp_ns, grain_obs, minor_w, promoted_w, fstats))
      cases
  in
  if filter <> None then begin
    (* a filtered run is a console probe: no serve leg, no JSON — the
       committed trajectory only ever holds full case sets *)
    Printf.printf "filtered run (%d case(s)): BENCH_parallel.json not written\n"
      (List.length measured);
    exit 0
  end;
  let serve = bench_serve ~quick () in
  Printf.printf
    "serve                    %d-request mix   cold %12.0f ns/req   warm %12.0f ns/req   (%.1fx)\n"
    serve.sv_requests serve.sv_cold_ns serve.sv_warm_ns
    (serve.sv_cold_ns /. serve.sv_warm_ns);
  Printf.printf
    "serve spans              n=%d solves      disarmed %10.0f ns/req   traced %10.0f ns/req   (%.3fx)\n"
    serve.sv_span_n serve.sv_disarmed_ns serve.sv_traced_ns
    (serve.sv_traced_ns /. serve.sv_disarmed_ns);
  let file = "BENCH_parallel.json" in
  let oc = open_out file in
  let int_array a =
    "[" ^ String.concat ", " (List.map string_of_int (Array.to_list a)) ^ "]"
  in
  let bool_array a =
    "[" ^ String.concat ", " (List.map string_of_bool (Array.to_list a)) ^ "]"
  in
  (* cores records oversubscription: speedup is only physically possible
     when domains <= cores (a 1-core container shows slowdowns) *)
  Printf.fprintf oc
    "{\n  \"schema\": \"repro-bench-parallel/8\",\n  \"domains\": %d,\n  \"cores\": %d,\n  \"quick\": %b,\n"
    domains
    (Domain.recommended_domain_count ())
    quick;
  Printf.fprintf oc
    "  \"serve\": {\"mix\": \"gadget-heavy\", \"requests\": %d, \"cold_ns_per_req\": \
     %.1f, \"warm_ns_per_req\": %.1f, \"reply_cache_hits\": %d, \
     \"reply_cache_misses\": %d, \"span_n\": %d, \"span_requests\": %d, \
     \"disarmed_ns_per_req\": %.1f, \"traced_ns_per_req\": %.1f},\n"
    serve.sv_requests serve.sv_cold_ns serve.sv_warm_ns serve.sv_hits
    serve.sv_misses serve.sv_span_n serve.sv_span_reqs serve.sv_disarmed_ns
    serve.sv_traced_ns;
  Printf.fprintf oc "  \"results\": [\n";
  List.iteri
    (fun i (case, t, disp_ns, grain_obs, minor_w, promoted_w, fstats) ->
      (* par_seq_ratio: 1.0 is parity, above 1 the pool dispatch costs
         more than it recovers (the check_bench gate). dispatch_ns is the
         measured whole-job dispatch wall time of one parallel-leg run;
         grain the observed ns per dispatched index, null when nothing
         dispatched *)
      Printf.fprintf oc
        "    {\"name\": %S, \"n\": %d, \"rounds\": %d, \"seq_ns_per_run\": %.1f, \"par_ns_per_run\": %.1f, \"par_seq_ratio\": %.3f, \"par_seq_spread\": %.3f, \"minor_words_per_round\": %.1f, \"promoted_words_per_round\": %.1f, \"dispatch_ns\": %d, \"grain\": %s"
        case.name case.n case.rounds t.seq_ns t.par_ns t.ratio t.spread minor_w
        promoted_w disp_ns
        (match grain_obs with
        | Some g -> Printf.sprintf "%.1f" g
        | None -> "null");
      (match fstats with
      | None -> ()
      | Some st ->
        Printf.fprintf oc
          ",\n     \"frontier\": {\"active_nodes\": %s, \"frontier_edges\": %s, \"dense_rounds\": %s, \"round_ns\": %s}"
          (int_array st.active_nodes)
          (int_array st.frontier_edges)
          (bool_array st.dense_rounds)
          (int_array st.round_ns));
      Printf.fprintf oc "}%s\n"
        (if i = List.length measured - 1 then "" else ","))
    measured;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (domains=%d, quick=%b)\n" file domains quick

let () =
  let rec parse quick filter = function
    | [] -> (quick, filter)
    | "--quick" :: rest -> parse true filter rest
    | "--filter" :: name :: rest -> parse quick (Some name) rest
    | _ ->
      prerr_endline "usage: main.exe [--quick] [--filter NAME]";
      exit 2
  in
  let quick, filter = parse false None (List.tl (Array.to_list Sys.argv)) in
  run ~quick ~filter
