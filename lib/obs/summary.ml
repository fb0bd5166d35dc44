(* Text rendering of the registry and of recorded traces: the --stats
   output of bin/repro and a human-readable companion to the JSONL
   export. *)

let pp_counters fmt () =
  let counters = List.filter (fun (_, v) -> v <> 0) (Registry.counters ()) in
  if counters <> [] then begin
    Format.fprintf fmt "@[<v>telemetry counters:@,";
    let width =
      List.fold_left (fun w (name, _) -> max w (String.length name)) 0 counters
    in
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %-*s %12d@," width name v)
      counters;
    Format.fprintf fmt "@]"
  end

let pp_histograms fmt () =
  let hists =
    List.filter
      (fun ((_, s) : string * Histogram.snapshot) -> s.count <> 0)
      (Registry.histograms ())
  in
  if hists <> [] then begin
    Format.fprintf fmt "@[<v>telemetry histograms:@,";
    List.iter
      (fun (name, (s : Histogram.snapshot)) ->
        Format.fprintf fmt "  %s: count=%d sum=%d mean=%.1f max=%d@," name
          s.count s.sum
          (if s.count = 0 then 0.0 else float_of_int s.sum /. float_of_int s.count)
          s.max;
        List.iter
          (fun (lo, c) -> Format.fprintf fmt "    >= %-12d %d@," lo c)
          s.buckets)
      hists;
    Format.fprintf fmt "@]"
  end

let pp fmt () =
  pp_counters fmt ();
  Format.pp_print_cut fmt ();
  pp_histograms fmt ()

(* one row per engine round span; mean = messages / active *)
let pp_trace fmt evs =
  Format.fprintf fmt "@[<v>%-10s %6s %8s %10s %12s %6s %8s %8s@," "engine"
    "round" "active" "messages" "bytes" "mbox" "mean" "rng";
  List.iter
    (function
      | Trace.Span s -> (
        match Trace.span_engine s with
        | Some engine ->
          let kv k = Trace.kv k s in
          Format.fprintf fmt "%-10s %6d %8d %10d %12d %6d %8.1f %8d@," engine
            (kv "round") (kv "active") (kv "messages") (kv "payload_bytes")
            (kv "mailbox_max")
            (float_of_int (kv "messages") /. float_of_int (max 1 (kv "active")))
            (kv "rng_draws")
        | None -> ())
      | Trace.Meta { label; n } ->
        Format.fprintf fmt "meta: label=%S n=%d@," label n
      | Trace.Cert c ->
        Format.fprintf fmt
          "cert: label=%S engine=%s nodes=%d declared=%d max_influence=%d violations=%d %s@,"
          c.label c.engine c.nodes c.declared c.max_influence_radius
          c.violations
          (if c.ok then "PASS" else "FAIL")
      | Trace.Counter _ | Trace.Audit _ -> ())
    evs;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* span trees                                                         *)
(* ------------------------------------------------------------------ *)

type span_node = { node : Trace.span; children : span_node list }

let duration (s : Trace.span) = s.stop_ns - s.start_ns

(* Rebuild the per-trace forests from the flat span list. Spans reach
   the stream in close order (children before parents), so the tree is
   assembled bottom-up; siblings are ordered by start time (span id as
   the tiebreak, so timing-stripped projections still order
   deterministically). Orphans — spans whose parent was lost to ring
   overflow — surface as extra roots rather than disappearing. *)
let span_forest spans =
  let module IM = Map.Make (Int) in
  let trace_order = ref [] in
  let by_trace : (int, Trace.span list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (s : Trace.span) ->
      match Hashtbl.find_opt by_trace s.trace_id with
      | Some l -> l := s :: !l
      | None ->
        trace_order := s.trace_id :: !trace_order;
        Hashtbl.add by_trace s.trace_id (ref [ s ]))
    spans;
  List.rev_map
    (fun tid ->
      let spans = List.rev !(Hashtbl.find by_trace tid) in
      let ids =
        List.fold_left
          (fun m (s : Trace.span) -> IM.add s.span_id s m)
          IM.empty spans
      in
      let kids : (int, Trace.span list ref) Hashtbl.t = Hashtbl.create 16 in
      let push p s =
        match Hashtbl.find_opt kids p with
        | Some l -> l := s :: !l
        | None -> Hashtbl.add kids p (ref [ s ])
      in
      let order =
        List.sort
          (fun (a : span_node) (b : span_node) ->
            match compare a.node.start_ns b.node.start_ns with
            | 0 -> compare a.node.span_id b.node.span_id
            | c -> c)
      in
      (* two passes: first attach every span under its parent id, then
         build nodes top-down — stream order (children close before
         parents, cross-slot spans interleaved arbitrarily) never
         matters. The visited set makes a malformed parent cycle
         degrade into truncation instead of divergence. *)
      let roots = ref [] in
      List.iter
        (fun (s : Trace.span) ->
          if s.parent >= 0 && s.parent <> s.span_id && IM.mem s.parent ids then
            push s.parent s
          else roots := s :: !roots)
        spans;
      let visited = Hashtbl.create 16 in
      let rec build (s : Trace.span) =
        Hashtbl.replace visited s.span_id ();
        let children =
          match Hashtbl.find_opt kids s.span_id with
          | Some l ->
            order
              (List.filter_map
                 (fun c ->
                   if Hashtbl.mem visited c.Trace.span_id then None
                   else Some (build c))
                 !l)
          | None -> []
        in
        { node = s; children }
      in
      (tid, order (List.rev_map build !roots)))
    (List.rev !trace_order)
  |> List.rev

let pp_kvs fmt = function
  | [] -> ()
  | kvs ->
    Format.fprintf fmt "  {";
    List.iteri
      (fun i (k, v) ->
        Format.fprintf fmt "%s%s=%d" (if i > 0 then " " else "") k v)
      kvs;
    Format.fprintf fmt "}"

let pp_span_tree fmt roots =
  let rec pp depth n =
    Format.fprintf fmt "%s%-*s %10.3f ms%a@," (String.make (2 * depth) ' ')
      (max 1 (32 - (2 * depth)))
      n.node.Trace.label
      (float_of_int (duration n.node) /. 1e6)
      pp_kvs n.node.Trace.kvs;
    List.iter (pp (depth + 1)) n.children
  in
  List.iter (pp 0) roots

(* the chain of largest-duration children from each root: where the
   wall-clock actually went, one hop per nesting level *)
let critical_path root =
  let rec go n acc =
    match
      List.fold_left
        (fun best (c : span_node) ->
          match best with
          | Some b when duration b.node >= duration c.node -> best
          | _ -> Some c)
        None n.children
    with
    | None -> List.rev (n :: acc)
    | Some widest -> go widest (n :: acc)
  in
  go root []

(* self time = duration minus time covered by children (clamped: a
   child recorded on another slot can overhang by a clock grain) *)
let self_time n =
  let covered =
    List.fold_left (fun acc c -> acc + duration c.node) 0 n.children
  in
  max 0 (duration n.node - covered)

let label_attribution roots =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rec walk n =
    let prev =
      Option.value ~default:0 (Hashtbl.find_opt tbl n.node.Trace.label)
    in
    Hashtbl.replace tbl n.node.Trace.label (prev + self_time n);
    List.iter walk n.children
  in
  List.iter walk roots;
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let pp_span_report fmt spans =
  List.iter
    (fun (tid, roots) ->
      Format.fprintf fmt "@[<v>trace %d:@," tid;
      pp_span_tree fmt roots;
      List.iter
        (fun root ->
          Format.fprintf fmt "critical path:@,";
          List.iter
            (fun n ->
              Format.fprintf fmt "  %-32s %10.3f ms@," n.node.Trace.label
                (float_of_int (duration n.node) /. 1e6))
            (critical_path root))
        roots;
      Format.fprintf fmt "self time by label:@,";
      List.iter
        (fun (label, ns) ->
          Format.fprintf fmt "  %-32s %10.3f ms@," label
            (float_of_int ns /. 1e6))
        (label_attribution roots);
      Format.fprintf fmt "@]@,")
    (span_forest spans)

(* the `repro audit` table: influence-radius histogram against the
   declared (theoretical) bound, plus the verdict and any violations *)
let pp_certificate fmt (c : Provenance.certificate) =
  Format.fprintf fmt "@[<v>certificate %S (engine %s, n=%d): %s@," c.Provenance.c_label
    c.Provenance.c_engine c.Provenance.c_n
    (if c.Provenance.c_ok then "PASS" else "FAIL");
  Format.fprintf fmt "  declared radius (max over nodes): %d@," c.Provenance.c_declared;
  Format.fprintf fmt "  max influence radius:             %d@,"
    c.Provenance.c_max_influence_radius;
  Format.fprintf fmt "  influence-radius histogram (radius: nodes, declared T = %d):@,"
    c.Provenance.c_declared;
  List.iter
    (fun (r, k) -> Format.fprintf fmt "    %4d: %d@," r k)
    c.Provenance.c_histogram;
  (match c.Provenance.c_violations with
  | [] -> ()
  | vs ->
    Format.fprintf fmt "  violations (%d):@," (List.length vs);
    List.iteri
      (fun i v ->
        if i < 8 then Format.fprintf fmt "    %a@," Provenance.pp_violation v)
      vs;
    if List.length vs > 8 then
      Format.fprintf fmt "    ... and %d more@," (List.length vs - 8));
  Format.fprintf fmt "@]"
