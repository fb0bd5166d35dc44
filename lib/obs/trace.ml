type round = {
  engine : string;
  round : int;
  messages : int;
  payload_bytes : int;
  mailbox_max : int;
  mailbox_mean : float;
  rng_draws : int;
  chunks : int;
  chunk_ns : int;
}

type span = {
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
  | Round of round
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

(* One recorder per registry, keyed by Registry.id in a side table (the
   recorder cannot live inside Registry.t without a module cycle on the
   event type). Every module-level operation below resolves the ambient
   registry first, so a recording is owned by the registry that was
   ambient at [start] — under the serve scheduler that is the owning
   request, and aborting one request's trace leaves every other
   request's recorder armed. Entries are removed on [finish]/[abort],
   so a long-lived daemon does not accumulate them.

   Events are emitted from the dispatching domain only (the engines
   emit between parallel phases), so the recorder itself needs no
   internal locking; the table mutex only guards the find/create/remove
   of entries. *)
type recorder = {
  mutable buf : event list;
  mutable base : (string * int) list;
}

let recorders : (int, recorder) Hashtbl.t = Hashtbl.create 8
let recorders_mutex = Mutex.create ()

let with_table f =
  Mutex.lock recorders_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock recorders_mutex) f

let recorder_opt () =
  let rid = Registry.id (Registry.ambient ()) in
  with_table (fun () -> Hashtbl.find_opt recorders rid)

let active () = recorder_opt () <> None

let emit e =
  match recorder_opt () with
  | Some r -> r.buf <- e :: r.buf
  | None -> ()

let start ?(label = "") ?(n = 0) () =
  Registry.enable ();
  let rid = Registry.id (Registry.ambient ()) in
  let r = { buf = []; base = Registry.counters () } in
  with_table (fun () -> Hashtbl.replace recorders rid r);
  if label <> "" || n > 0 then emit (Meta { label; n })

let events () =
  match recorder_opt () with Some r -> List.rev r.buf | None -> []

let drop () =
  let rid = Registry.id (Registry.ambient ()) in
  with_table (fun () -> Hashtbl.remove recorders rid)

let abort () =
  (* drop everything: a run that raised mid-trace must not leak its
     events or counter baselines into the next recording — and only the
     ambient (owning) registry's recorder is dropped, so concurrent
     requests' recorders stay armed *)
  drop ()

let finish () =
  match recorder_opt () with
  | None -> []
  | Some r ->
    (* close the trace with the per-trace counter deltas, so every trace
       file is self-contained: its Counter lines are the totals consumed
       between start and finish, not process-lifetime values *)
    let deltas =
      List.filter_map
        (fun (name, v) ->
          let b =
            match List.assoc_opt name r.base with Some b -> b | None -> 0
          in
          if v - b <> 0 then Some (Counter { name; value = v - b }) else None)
        (Registry.counters ())
    in
    List.iter (fun e -> r.buf <- e :: r.buf) deltas;
    drop ();
    List.rev r.buf

let record ?label ?n f =
  start ?label ?n ();
  match f () with
  | x -> (x, finish ())
  | exception e ->
    (* the protective finalizer: without it the recorder stays armed and
       the next run silently inherits stale events and baselines *)
    abort ();
    raise e

(* ------------------------------------------------------------------ *)
(* JSONL encoding                                                     *)
(* ------------------------------------------------------------------ *)

let event_to_json = function
  | Meta { label; n } ->
    Json.Obj
      [ ("type", Json.String "meta"); ("label", Json.String label); ("n", Json.Int n) ]
  | Round r ->
    Json.Obj
      [
        ("type", Json.String "round");
        ("engine", Json.String r.engine);
        ("round", Json.Int r.round);
        ("messages", Json.Int r.messages);
        ("payload_bytes", Json.Int r.payload_bytes);
        ("mailbox_max", Json.Int r.mailbox_max);
        ("mailbox_mean", Json.Float r.mailbox_mean);
        ("rng_draws", Json.Int r.rng_draws);
        ("chunks", Json.Int r.chunks);
        ("chunk_ns", Json.Int r.chunk_ns);
      ]
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
  let float key =
    match Option.bind (Json.member key j) Json.to_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "missing float field %S" key)
  in
  let ( let* ) = Result.bind in
  let* kind = str "type" in
  match kind with
  | "meta" ->
    let* label = str "label" in
    let* n = int "n" in
    Ok (Meta { label; n })
  | "round" ->
    let* engine = str "engine" in
    let* round = int "round" in
    let* messages = int "messages" in
    let* payload_bytes = int "payload_bytes" in
    let* mailbox_max = int "mailbox_max" in
    let* mailbox_mean = float "mailbox_mean" in
    let* rng_draws = int "rng_draws" in
    let* chunks = int "chunks" in
    let* chunk_ns = int "chunk_ns" in
    Ok
      (Round
         {
           engine;
           round;
           messages;
           payload_bytes;
           mailbox_max;
           mailbox_mean;
           rng_draws;
           chunks;
           chunk_ns;
         })
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

let is_pool_counter name =
  String.length name >= 11 && String.sub name 0 11 = "local.pool."

(* pool.* spans describe how the pool happened to chunk the work — the
   only spans recorded by worker domains, and the only
   schedule-dependent ones *)
let is_pool_span label =
  String.length label >= 5 && String.sub label 0 5 = "pool."

let is_ns_kv key =
  let n = String.length key in
  (n >= 3 && String.sub key (n - 3) 3 = "_ns") || key = "ns"

let deterministic_projection evs =
  let kept =
    List.filter_map
      (function
        | Round r -> Some (Round { r with chunks = 0; chunk_ns = 0 })
        | Counter { name; _ } when is_pool_counter name -> None
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

let total_messages ?engine evs =
  List.fold_left
    (fun acc e ->
      match e with
      | Round r
        when (match engine with None -> true | Some e' -> r.engine = e') ->
        acc + r.messages
      | _ -> acc)
    0 evs

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
  (* 1. per-engine round message sums equal the engine's counter delta *)
  List.iter
    (fun (engine, counter) ->
      let sum = total_messages ~engine evs in
      let has_rounds =
        List.exists (function Round r -> r.engine = engine | _ -> false) evs
      in
      match counter_value counter evs with
      | Some v when has_rounds && v <> sum ->
        fail "%s: round message sum %d <> counter %s = %d" engine sum counter v
      | Some v when (not has_rounds) && v <> 0 ->
        fail "%s: counter %s = %d but the trace has no %s rounds" engine counter
          v engine
      | None when has_rounds ->
        fail "%s: rounds recorded but counter %s is missing" engine counter
      | _ -> ())
    [
      ("frontier", "local.frontier.messages");
      ("flood_gather", "local.flood.messages");
    ];
  (* 2. round numbering starts at 0 and increases within an engine run *)
  let last : (string, int) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (function
      | Round r ->
        let prev = Option.value ~default:(-1) (Hashtbl.find_opt last r.engine) in
        if r.round <> prev + 1 && r.round <> 0 then
          fail "%s: round %d follows round %d" r.engine r.round prev;
        Hashtbl.replace last r.engine r.round
      | _ -> ())
    evs;
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
