type span = Span.span = {
  trace_id : int;
  span_id : int;
  parent : int;
  label : string;
  start_ns : int;
  stop_ns : int;
  kvs : (string * int) list;
}

type event =
  | Meta of { label : string; n : int }
  | Counter of { name : string; value : int }
  | Span of span
  | Audit of {
      node : int;
      rounds_active : int;
      influence_radius : int;
      ball_radius : int;
      influence_size : int;
    }
  | Cert of {
      label : string;
      engine : string;
      nodes : int;
      declared : int;
      max_influence_radius : int;
      violations : int;
      ok : bool;
    }

(* ------------------------------------------------------------------ *)
(* recorder                                                           *)
(* ------------------------------------------------------------------ *)

(* One recorder for the process. Events are emitted from the
   dispatching domain only (the engines record rounds as spans, and
   spans drain at the end of [record]), so the buffer needs no
   locking. *)
type recorder = {
  mutable buf : event list;
  base : (string * int) list; (* counter values at the start *)
}

let recorder : recorder option ref = ref None
let active () = !recorder <> None

let emit e =
  match !recorder with Some r -> r.buf <- e :: r.buf | None -> ()

let record ?(label = "") ?(n = 0) f =
  Registry.enable ();
  let r = { buf = []; base = Registry.counters () } in
  recorder := Some r;
  if label <> "" || n > 0 then emit (Meta { label; n });
  let (_ : int) = Span.arm () in
  match f () with
  | x ->
    let dropped = Span.dropped () in
    List.iter (fun s -> emit (Span s)) (Span.take ());
    if dropped > 0 then
      emit (Counter { name = "obs.spans_dropped"; value = dropped });
    (* per-trace deltas, so every trace file is self-contained: its
       Counter lines are the totals consumed during the recording, not
       process-lifetime values *)
    List.iter
      (fun (name, value) -> emit (Counter { name; value }))
      (Registry.deltas r.base);
    recorder := None;
    (x, List.rev r.buf)
  | exception e ->
    (* without this the recorders stay armed and the next run silently
       inherits stale events, spans and baselines *)
    Span.abort ();
    recorder := None;
    raise e

(* ------------------------------------------------------------------ *)
(* JSONL encoding                                                     *)
(* ------------------------------------------------------------------ *)

let event_to_json = function
  | Meta { label; n } ->
    Json.Obj
      [ ("type", Json.String "meta"); ("label", Json.String label); ("n", Json.Int n) ]
  | Counter { name; value } ->
    Json.Obj
      [
        ("type", Json.String "counter");
        ("name", Json.String name);
        ("value", Json.Int value);
      ]
  | Span s ->
    Json.Obj
      [
        ("type", Json.String "span");
        ("trace_id", Json.Int s.trace_id);
        ("span_id", Json.Int s.span_id);
        ("parent", Json.Int s.parent);
        ("label", Json.String s.label);
        ("start_ns", Json.Int s.start_ns);
        ("stop_ns", Json.Int s.stop_ns);
        ("kvs", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.kvs));
      ]
  | Audit a ->
    Json.Obj
      [
        ("type", Json.String "audit");
        ("node", Json.Int a.node);
        ("rounds_active", Json.Int a.rounds_active);
        ("influence_radius", Json.Int a.influence_radius);
        ("ball_radius", Json.Int a.ball_radius);
        ("influence_size", Json.Int a.influence_size);
      ]
  | Cert c ->
    Json.Obj
      [
        ("type", Json.String "cert");
        ("label", Json.String c.label);
        ("engine", Json.String c.engine);
        ("nodes", Json.Int c.nodes);
        ("declared", Json.Int c.declared);
        ("max_influence_radius", Json.Int c.max_influence_radius);
        ("violations", Json.Int c.violations);
        ("ok", Json.Bool c.ok);
      ]

let event_of_json j =
  let str key =
    match Option.bind (Json.member key j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string field %S" key)
  in
  let int key =
    match Option.bind (Json.member key j) Json.to_int with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "missing int field %S" key)
  in
  let ( let* ) = Result.bind in
  let* kind = str "type" in
  match kind with
  | "meta" ->
    let* label = str "label" in
    let* n = int "n" in
    Ok (Meta { label; n })
  | "counter" ->
    let* name = str "name" in
    let* value = int "value" in
    Ok (Counter { name; value })
  | "span" ->
    let* trace_id = int "trace_id" in
    let* span_id = int "span_id" in
    let* parent = int "parent" in
    let* label = str "label" in
    let* start_ns = int "start_ns" in
    let* stop_ns = int "stop_ns" in
    let* kvs =
      match Json.member "kvs" j with
      | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Json.to_int v with
            | Some i -> Ok ((k, i) :: acc)
            | None -> Error (Printf.sprintf "span kv %S is not an int" k))
          (Ok []) fields
        |> Result.map List.rev
      | Some _ -> Error "span field \"kvs\" is not an object"
      | None -> Error "missing object field \"kvs\""
    in
    Ok (Span { trace_id; span_id; parent; label; start_ns; stop_ns; kvs })
  | "audit" ->
    let* node = int "node" in
    let* rounds_active = int "rounds_active" in
    let* influence_radius = int "influence_radius" in
    let* ball_radius = int "ball_radius" in
    let* influence_size = int "influence_size" in
    Ok (Audit { node; rounds_active; influence_radius; ball_radius; influence_size })
  | "cert" ->
    let bool key =
      match Option.bind (Json.member key j) Json.to_bool with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "missing bool field %S" key)
    in
    let* label = str "label" in
    let* engine = str "engine" in
    let* nodes = int "nodes" in
    let* declared = int "declared" in
    let* max_influence_radius = int "max_influence_radius" in
    let* violations = int "violations" in
    let* ok = bool "ok" in
    Ok (Cert { label; engine; nodes; declared; max_influence_radius; violations; ok })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let write_jsonl path evs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Json.to_string (event_to_json e));
          output_char oc '\n')
        evs)

let read_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> go (lineno + 1) acc
        | line -> (
          match Json.of_string line with
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
          | Ok j -> (
            match event_of_json j with
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
            | Ok e -> go (lineno + 1) (e :: acc)))
      in
      go 1 [])

(* ------------------------------------------------------------------ *)
(* analysis                                                           *)
(* ------------------------------------------------------------------ *)

(* the local.pool.* counters, and the worker chunk spans lost to ring
   overflow, describe how the pool happened to execute the work *)
let is_schedule_counter name =
  String.starts_with ~prefix:"local.pool." name || name = "obs.spans_dropped"

(* pool.* spans describe how the pool happened to chunk the work — the
   only spans recorded by worker domains, and the only
   schedule-dependent ones *)
let is_pool_span label = String.starts_with ~prefix:"pool." label

let is_ns_kv key =
  let n = String.length key in
  (n >= 3 && String.sub key (n - 3) 3 = "_ns") || key = "ns"

let deterministic_projection evs =
  let kept =
    List.filter_map
      (function
        | Counter { name; _ } when is_schedule_counter name -> None
        | Span s when is_pool_span s.label -> None
        | Span s ->
          Some
            (Span
               {
                 s with
                 start_ns = 0;
                 stop_ns = 0;
                 kvs = List.filter (fun (k, _) -> not (is_ns_kv k)) s.kvs;
               })
        | e -> Some e)
      evs
  in
  (* span/trace ids are allocated from per-slot counters (Span), so the
     raw values depend on the pool size; renumber both in order of
     appearance so two runs of the same work project identically. The
     remaining spans were all recorded by the dispatching thread, so
     their order is deterministic. *)
  let tids = Hashtbl.create 4 and sids = Hashtbl.create 16 in
  let canon tbl id =
    if id < 0 then id
    else
      match Hashtbl.find_opt tbl id with
      | Some c -> c
      | None ->
        let c = Hashtbl.length tbl in
        Hashtbl.add tbl id c;
        c
  in
  List.map
    (function
      | Span s ->
        Span
          {
            s with
            trace_id = canon tids s.trace_id;
            span_id = canon sids s.span_id;
            parent = canon sids s.parent;
          }
      | e -> e)
    kept

let deterministic_equal a b =
  deterministic_projection a = deterministic_projection b

let kv key (s : span) = Option.value ~default:0 (List.assoc_opt key s.kvs)

(* the engines that record their rounds as [<engine>.round] spans with
   statistics kvs, and the counter their [messages] kvs sum to *)
let round_engines =
  [ ("frontier", "local.frontier.messages"); ("flood", "local.flood.messages") ]

let span_engine (s : span) =
  if String.ends_with ~suffix:".round" s.label then
    let engine = String.sub s.label 0 (String.length s.label - 6) in
    if List.mem_assoc engine round_engines then Some engine else None
  else None

let round_spans evs =
  List.filter_map
    (function
      | Span s -> Option.map (fun e -> (e, s)) (span_engine s) | _ -> None)
    evs

let total_messages ?engine evs =
  List.fold_left
    (fun acc (e, s) ->
      if Option.fold ~none:true ~some:(String.equal e) engine then
        acc + kv "messages" s
      else acc)
    0 (round_spans evs)

let counter_value name evs =
  List.fold_left
    (fun acc e ->
      match e with
      | Counter c when c.name = name -> Some c.value
      | _ -> acc)
    None evs

let spans evs = List.filter_map (function Span s -> Some s | _ -> None) evs

(* The offline re-check of the recorded invariants: everything here is
   recomputable from the JSONL file alone (the point of the per-trace
   counter deltas), so `repro trace-report` can audit a trace long after
   the run. Returns human-readable failure messages; [] means PASS. *)
let check_invariants evs =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* 1. in a recording (a stream that closes with counter deltas), each
     engine's round message kvs sum to the engine's counter delta *)
  if List.exists (function Counter _ -> true | _ -> false) evs then
    List.iter
      (fun (engine, counter) ->
        let sum = total_messages ~engine evs in
        let v = Option.value ~default:0 (counter_value counter evs) in
        if v <> sum then
          fail "%s: round message sum %d <> counter %s = %d" engine sum counter v)
      round_engines;
  (* 2. round numbering starts at 0 and increases within an engine run *)
  let last : (string, int) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (engine, s) ->
      let r = kv "round" s in
      let prev = Option.value ~default:(-1) (Hashtbl.find_opt last engine) in
      if r <> prev + 1 && r <> 0 then
        fail "%s: round %d follows round %d" engine r prev;
      Hashtbl.replace last engine r)
    (round_spans evs);
  (* 3. audit records respect their declared balls, and the certificate
     summaries agree with the per-node records they close *)
  let audit_violations = ref 0 and audit_nodes = ref 0 in
  let cert_violations = ref 0 and certs = ref 0 in
  List.iter
    (function
      | Audit a ->
        incr audit_nodes;
        if a.influence_radius > a.ball_radius then incr audit_violations
      | Cert c ->
        incr certs;
        cert_violations := !cert_violations + c.violations;
        if c.ok <> (c.violations = 0) then
          fail "cert %S: ok=%b but violations=%d" c.label c.ok c.violations
      | _ -> ())
    evs;
  if !audit_nodes > 0 && !certs = 0 then
    fail "audit records without a closing cert event";
  (* a cert violation is a (node, leaked source) pair, so a violating
     node contributes at least one — counts need not match exactly *)
  if !certs > 0 && !cert_violations < !audit_violations then
    fail "cert events report %d violation pair(s) but %d audit record(s) violate"
      !cert_violations !audit_violations;
  if !certs > 0 && !cert_violations > 0 && !audit_violations = 0 then
    fail "cert events report %d violation pair(s) but no audit record violates"
      !cert_violations;
  (* 4. spans nest: within a trace id, span ids are unique, every parent
     pointer resolves (or is -1 for a root), intervals are well-formed
     and a child's interval lies inside its parent's. Timing-stripped
     projections pass trivially ([0,0] within [0,0]). *)
  let by_trace : (int, (int, span) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (s : span) ->
      let tbl =
        match Hashtbl.find_opt by_trace s.trace_id with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 16 in
          Hashtbl.add by_trace s.trace_id tbl;
          tbl
      in
      if Hashtbl.mem tbl s.span_id then
        fail "trace %d: duplicate span id %d (%s)" s.trace_id s.span_id s.label
      else Hashtbl.add tbl s.span_id s;
      if s.stop_ns < s.start_ns then
        fail "trace %d: span %d (%s) stops %d ns before it starts" s.trace_id
          s.span_id s.label (s.start_ns - s.stop_ns))
    (spans evs);
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then
        let tbl = Hashtbl.find by_trace s.trace_id in
        match Hashtbl.find_opt tbl s.parent with
        | None ->
          fail "trace %d: span %d (%s) has unknown parent %d" s.trace_id
            s.span_id s.label s.parent
        | Some p ->
          if p.span_id = s.span_id then
            fail "trace %d: span %d (%s) is its own parent" s.trace_id s.span_id
              s.label
          else if s.start_ns < p.start_ns || s.stop_ns > p.stop_ns then
            fail "trace %d: span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]"
              s.trace_id s.span_id s.label s.start_ns s.stop_ns p.span_id
              p.label p.start_ns p.stop_ns)
    (spans evs);
  List.rev !failures
