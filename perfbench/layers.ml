(* Layer attribution for the traced pass.

   The benchmark opens a span around every public call a workload makes
   ([span] below); the program's own engine spans ([mp.*], [frontier.*],
   [wave.*], [flood.*]) and the pool's [pool.chunk] spans nest underneath.
   [reduce] turns the closed spans of one op into per-label self time
   (via [Obs.Summary.label_attribution]), inclusive time, per-layer self
   allocation and span counts. *)

module Obs = Core.Obs

let layers =
  [ "graph"; "gadget"; "padding"; "problems"; "lcl"; "local"; "pool"; "obs"; "serve" ]

(* the layer a span label belongs to: its first dot-separated component,
   with the engine-round families folded into [local] (the engines live in
   lib/local) and the benchmark's own [bench.op] root left unattributed *)
let layer_of label =
  let head =
    match String.index_opt label '.' with
    | Some i -> String.sub label 0 i
    | None -> label
  in
  match head with
  | "mp" | "frontier" | "wave" | "flood" -> "local"
  | h when List.mem h layers -> h
  | _ -> "bench"

(* the layers with a self time and an allocation figure: not pool, whose
   chunk spans run in parallel with the rounds they sit under (reported
   as pool.chunk_ms instead) and carry no allocation figure *)
let timed_layers = List.filter (fun l -> l <> "pool") layers

let is_pool (s : Obs.Trace.span) = String.starts_with ~prefix:"pool." s.label

(* Minor words allocated during [f] ride on the span as [minor_w]. Gc
   counters are per domain, so this is the dispatching domain's share. *)
let span label f =
  if not (Obs.Span.armed ()) then f ()
  else begin
    let h = Obs.Span.enter label in
    let m0 = Gc.minor_words () in
    match f () with
    | v ->
      Obs.Span.exit ~kvs:[ ("minor_w", int_of_float (Gc.minor_words () -. m0)) ] h;
      v
    | exception e ->
      Obs.Span.exit h;
      raise e
  end

(* one op's (or one request's) trace, reduced *)
type reduced = {
  self_ns : (string * int) list;  (** per label, pool spans excluded *)
  incl_ns : (string * int) list;  (** per label, summed durations *)
  minor_w : (string * int) list;  (** per layer, self minor words *)
  chunk_ns : int;  (** summed [pool.chunk] durations, all domains *)
  spans : int;
  orphans : int;  (** spans whose parent is missing (lost to overflow) *)
  root_ns : int;
  covered_ns : int;  (** part of the roots' duration their children cover *)
  rounds : int;  (** engine round spans *)
  active : int;  (** summed [active] attribute of frontier/wave rounds *)
}

let duration (s : Obs.Trace.span) = s.stop_ns - s.start_ns
let kv key (s : Obs.Trace.span) = List.assoc_opt key s.kvs

let add tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let to_list tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let reduce (spans : Obs.Trace.span list) =
  let module Sm = Obs.Summary in
  let main = List.filter (fun s -> not (is_pool s)) spans in
  let roots = List.concat_map snd (Sm.span_forest main) in
  let incl = Hashtbl.create 16 and minor = Hashtbl.create 16 in
  let rounds = ref 0 and active = ref 0 and orphans = ref 0 in
  let ids = Hashtbl.create 256 in
  List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace ids (s.trace_id, s.span_id) ()) main;
  (* the allocation of the nearest descendants that carry [minor_w] *)
  let rec below (n : Sm.span_node) =
    List.fold_left
      (fun acc (c : Sm.span_node) ->
        acc + match kv "minor_w" c.node with Some w -> w | None -> below c)
      0 n.children
  in
  let rec walk (n : Sm.span_node) =
    let s = n.node in
    add incl s.label (duration s);
    (match kv "minor_w" s with
    | Some w -> add minor (layer_of s.label) (max 0 (w - below n))
    | None -> ());
    if String.ends_with ~suffix:".round" s.label then begin
      incr rounds;
      active := !active + Option.value ~default:0 (kv "active" s)
    end;
    List.iter walk n.children
  in
  List.iter walk roots;
  List.iter
    (fun (s : Obs.Trace.span) ->
      if s.parent >= 0 && not (Hashtbl.mem ids (s.trace_id, s.parent)) then incr orphans)
    main;
  let root_ns = List.fold_left (fun acc (r : Sm.span_node) -> acc + duration r.node) 0 roots in
  let root_self = List.fold_left (fun acc r -> acc + Sm.self_time r) 0 roots in
  {
    self_ns = Sm.label_attribution roots;
    incl_ns = to_list incl;
    minor_w = to_list minor;
    chunk_ns =
      List.fold_left (fun acc s -> if is_pool s then acc + duration s else acc) 0 spans;
    spans = List.length spans;
    orphans = !orphans;
    root_ns;
    covered_ns = root_ns - root_self;
    rounds = !rounds;
    active = !active;
  }

(* Sums of [reduced] over the traced ops of one run. *)
type acc = {
  a_self : (string, int) Hashtbl.t;
  a_incl : (string, int) Hashtbl.t;
  a_minor : (string, int) Hashtbl.t;
  a_counters : (string, int) Hashtbl.t;
  mutable a_chunk_ns : int;
  mutable a_spans : int;
  mutable a_dropped : int;
  mutable a_root_ns : int;
  mutable a_covered_ns : int;
  mutable a_rounds : int;
  mutable a_active : int;
  mutable a_obs_ns : int;  (** time spent taking and reducing spans *)
  mutable a_ops : int;
}

let acc () =
  {
    a_self = Hashtbl.create 32;
    a_incl = Hashtbl.create 32;
    a_minor = Hashtbl.create 16;
    a_counters = Hashtbl.create 32;
    a_chunk_ns = 0;
    a_spans = 0;
    a_dropped = 0;
    a_root_ns = 0;
    a_covered_ns = 0;
    a_rounds = 0;
    a_active = 0;
    a_obs_ns = 0;
    a_ops = 0;
  }

let absorb a r ~dropped =
  List.iter (fun (k, v) -> add a.a_self k v) r.self_ns;
  List.iter (fun (k, v) -> add a.a_incl k v) r.incl_ns;
  List.iter (fun (k, v) -> add a.a_minor k v) r.minor_w;
  a.a_chunk_ns <- a.a_chunk_ns + r.chunk_ns;
  a.a_spans <- a.a_spans + r.spans;
  a.a_dropped <- a.a_dropped + dropped;
  a.a_root_ns <- a.a_root_ns + r.root_ns;
  a.a_covered_ns <- a.a_covered_ns + r.covered_ns;
  a.a_rounds <- a.a_rounds + r.rounds;
  a.a_active <- a.a_active + r.active

let absorb_counters a counters = List.iter (fun (k, v) -> add a.a_counters k v) counters

(* per-op means *)
let per_op a v = if a.a_ops = 0 then 0. else float_of_int v /. float_of_int a.a_ops
let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
let self_ms a labels = per_op a (List.fold_left (fun s l -> s + get a.a_self l) 0 labels) /. 1e6
let incl_ms a label = per_op a (get a.a_incl label) /. 1e6
let counter a names = per_op a (List.fold_left (fun s n -> s + get a.a_counters n) 0 names)

let layer_self_ms a layer =
  let own =
    Hashtbl.fold (fun l v s -> if layer_of l = layer then s + v else s) a.a_self 0
  in
  per_op a (if layer = "obs" then own + a.a_obs_ns else own) /. 1e6

(* The per-layer metrics every traced run reports, in a fixed order.
   Figures the spans cannot give (queue-wait quantiles, cache ratios, the
   overhead ratio) come in as [overrides]; absent ones read 0. *)
let metrics ?(overrides = []) a =
  let ms = "ms" and count = "count" and ratio = "ratio" in
  let lay_self = List.map (fun l -> (l ^ ".self_ms", layer_self_ms a l, ms)) timed_layers in
  let lay_minor =
    List.map (fun l -> (l ^ ".minor_kw", per_op a (get a.a_minor l) /. 1e3, "kw")) timed_layers
  in
  [
    ("graph.gen_ms", self_ms a [ "graph.gen" ], ms);
    ("gadget.build_ms", self_ms a [ "gadget.build" ], ms);
    ("gadget.prove_ms", self_ms a [ "gadget.prove" ], ms);
    ("padding.build_ms", self_ms a [ "padding.build" ], ms);
    ("padding.solve_det_ms", incl_ms a "padding.solve_det", ms);
    ("padding.solve_rand_ms", incl_ms a "padding.solve_rand", ms);
    ("padding.solve_self_ms", self_ms a [ "padding.solve_det"; "padding.solve_rand" ], ms);
    ("problems.so_det_ms", incl_ms a "problems.so_det", ms);
    ("problems.so_rand_ms", incl_ms a "problems.so_rand", ms);
    ("problems.wave_ms", incl_ms a "problems.wave", ms);
    ("problems.wave_rounds", counter a [ "problems.so.wave.rounds" ], count);
    ("problems.wave_fallback_repairs", counter a [ "problems.so.wave.fallback_repairs" ], count);
    ("lcl.check_ms", incl_ms a "lcl.check", ms);
    ("lcl.dcheck_ms", incl_ms a "lcl.dcheck", ms);
    ("lcl.dcheck_rejects", counter a [ "lcl.dcheck.rejecting_nodes" ], count);
    ("local.mp_round_ms", self_ms a [ "mp.round"; "flood.round" ], ms);
    ("local.frontier_round_ms", self_ms a [ "frontier.round" ], ms);
    ("local.wave_round_ms", self_ms a [ "wave.round" ], ms);
    ("local.rounds", per_op a a.a_rounds, count);
    ( "local.messages",
      counter a [ "local.mp.messages"; "local.frontier.messages"; "local.flood.messages" ],
      count );
    ("local.active_nodes", per_op a a.a_active, count);
    ("pool.jobs", counter a [ "local.pool.jobs" ], count);
    ("pool.seq_loops", counter a [ "local.pool.seq_loops" ], count);
    ("pool.cutoff_inline", counter a [ "local.pool.cutoff_inline" ], count);
    ("pool.chunks", counter a [ "local.pool.chunks" ], count);
    ("pool.chunk_ms", per_op a a.a_chunk_ns /. 1e6, ms);
    ("pool.dispatch_ms", counter a [ "local.pool.dispatch_ns" ] /. 1e6, ms);
    ("serve.queue_wait_p50_ms", 0., ms);
    ("serve.queue_wait_p99_ms", 0., ms);
    ("serve.execute_ms", incl_ms a "serve.execute", ms);
    ("serve.encode_ms", incl_ms a "serve.encode", ms);
    ("serve.cache_lookup_ms", incl_ms a "serve.cache.lookup", ms);
    ("serve.reply_hit_ratio", 0., ratio);
    ("serve.artifact_hit_ratio", 0., ratio);
    ("serve.busy_replies", 0., count);
    ("obs.spans", per_op a a.a_spans, count);
    ("obs.spans_dropped", per_op a a.a_dropped, count);
    ( "obs.span_coverage",
      (if a.a_root_ns = 0 then 0.
       else float_of_int a.a_covered_ns /. float_of_int a.a_root_ns),
      ratio );
    ("obs.trace_overhead_ratio", 0., ratio);
  ]
  @ lay_self @ lay_minor
  |> List.map (fun (name, v, u) ->
         (name, Option.value ~default:v (List.assoc_opt name overrides), u))

(* the layers with the most self time, largest first *)
let top_layers a k =
  timed_layers
  |> List.map (fun l -> (l, layer_self_ms a l))
  |> List.sort (fun (_, x) (_, y) -> compare y x)
  |> List.filteri (fun i _ -> i < k)
