module G = Repro_graph.Multigraph
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool
module MP = Repro_local.Message_passing
module Frontier = Repro_local.Frontier
module Audit = Repro_local.Audit
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module DC = Repro_lcl.Distributed_check
module SO = Repro_problems.Sinkless_orientation
module Coloring = Repro_problems.Coloring
module Mis = Repro_problems.Mis
module Luby = Repro_problems.Luby
module Matching = Repro_problems.Matching
module Two = Repro_problems.Two_coloring
module GL = Repro_gadget.Labels
module Check = Repro_gadget.Check
module Corrupt = Repro_gadget.Corrupt
module V = Repro_gadget.Verifier
module Psi = Repro_gadget.Psi
module NP = Repro_gadget.Ne_psi
module Spec = Repro_padding.Spec
module H = Repro_padding.Hierarchy
module Prov = Repro_obs.Provenance

type verdict = (unit, string) result

let known_bugs = [ "so-edge-clause" ]

let planted_bug = ref (Sys.getenv_opt "REPRO_FUZZ_BREAK")

let ( let& ) v f = match v with Ok () -> f () | Error _ as e -> e

let require cond msg = if cond then Ok () else Error msg

let requiref cond fmt = Format.kasprintf (require cond) fmt

(* ------------------------------------------------------------------ *)

let unit_input g = Labeling.const g ~v:() ~e:() ~b:()

(* every node accepts under the node-centric reference *)
let ref_accepts problem g out =
  Array.for_all Fun.id
    (Reference.node_verdicts problem g ~input:(unit_input g) ~output:out)

let so_solvers (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let check label (out : SO.output) =
    let& () = requiref (SO.is_valid g out) "%s: checker rejects" label in
    let& () =
      requiref (SO.count_sinks g out = 0) "%s: %d sinks left" label
        (SO.count_sinks g out)
    in
    requiref (ref_accepts SO.problem g out) "%s: reference checker rejects"
      label
  in
  let out_d, _ = SO.solve_deterministic inst in
  let& () = check "so-det" out_d in
  let out_r, _ = SO.solve_randomized inst in
  check "so-rand" out_r

let colorful (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let delta = G.max_degree g in
  let col, _ = Coloring.solve inst in
  let& () = require (Coloring.is_valid g col) "coloring: checker rejects" in
  let& () =
    require
      (ref_accepts (Coloring.problem ~delta) g col)
      "coloring: reference checker rejects"
  in
  let mis, _ = Mis.solve inst in
  let& () = require (Mis.is_valid g mis) "mis: checker rejects" in
  let& () =
    require (ref_accepts Mis.problem g mis) "mis: reference checker rejects"
  in
  let luby, _ = Luby.solve inst in
  let& () = require (Luby.is_valid g luby) "luby-mis: checker rejects" in
  let& () =
    require (ref_accepts Mis.problem g luby)
      "luby-mis: reference checker rejects"
  in
  let mat, _ = Matching.solve inst in
  let& () = require (Matching.is_valid g mat) "matching: checker rejects" in
  require
    (ref_accepts Matching.problem g mat)
    "matching: reference checker rejects"

let two_coloring (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let& () = require (Two.is_bipartite g) "generator produced a non-bipartite graph" in
  let inst = Instance.create ~seed g in
  let out, _ = Two.solve inst in
  let& () = require (Two.is_valid g out) "2-coloring: checker rejects" in
  require
    (ref_accepts Two.problem g out)
    "2-coloring: reference checker rejects"

(* ------------------------------------------------------------------ *)
(* sweep-vs-reference differential (the planted-bug oracle) *)

let so_sweep_problem () =
  match !planted_bug with
  | Some "so-edge-clause" ->
    (* the deliberately broken copy: accepts any edge labeling *)
    { SO.problem with Ne_lcl.check_edge = (fun _ -> true) }
  | _ -> SO.problem

let flip_half (out : SO.output) h =
  let b = Array.copy out.Labeling.b in
  b.(h) <- (match b.(h) with SO.Out -> SO.In | SO.In -> SO.Out);
  { out with Labeling.b }

(* the sweep's per-node accepts (through [Distributed_check.run], with
   [p]) equal the node-centric reference's (with [p_ref]) *)
let agrees label inst p p_ref out =
  let g = inst.Instance.graph in
  let input = unit_input g in
  let got = (DC.run p inst ~input ~output:out).DC.accepts in
  let want = Reference.node_verdicts p_ref g ~input ~output:out in
  let rec first v =
    if v = G.n g then Ok ()
    else if got.(v) <> want.(v) then
      Error
        (Printf.sprintf "%s: node %d: sweep says %b, reference says %b" label v
           got.(v) want.(v))
    else first (v + 1)
  in
  first 0

let dcheck (recipe, seed, mutate) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let out, _ = SO.solve_deterministic inst in
  let out, mutated =
    match mutate with
    | Some h when G.m g > 0 -> (flip_half out (h mod (2 * G.m g)), true)
    | _ -> (out, false)
  in
  let& () = agrees "so" inst (so_sweep_problem ()) SO.problem out in
  let ok = ref_accepts SO.problem g out in
  let& () =
    requiref (ok = not mutated) "verdict %b but output was %s" ok
      (if mutated then "corrupted" else "produced by the solver")
  in
  (* labelings of the other landscape problems on the same multigraph,
     drawn from the case's seed *)
  let rng = Random.State.make [| seed |] in
  let col = Gen_labeling.coloring rng g in
  let& () =
    let p = Coloring.problem ~delta:(G.max_degree g) in
    agrees "coloring" inst p p col
  in
  let mis = Gen_labeling.mis rng g in
  let& () = agrees "mis" inst Mis.problem Mis.problem mis in
  let mat = Gen_labeling.matching rng g in
  agrees "matching" inst Matching.problem Matching.problem mat

(* ------------------------------------------------------------------ *)
(* pool-size differential *)

let engines (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let run () =
    let out, m = SO.solve_deterministic inst in
    let fl = MP.flood_gather inst ~radius:3 (fun v -> v) in
    (out, Meter.max_radius m, Meter.histogram m, fl)
  in
  let saved = Pool.size () in
  Fun.protect
    ~finally:(fun () -> Pool.set_size saved)
    (fun () ->
      Pool.set_size 1;
      let base = run () in
      let rec go = function
        | [] -> Ok ()
        | s :: rest ->
          Pool.set_size s;
          let& () =
            requiref (run () = base) "%d-domain run differs from sequential" s
          in
          go rest
      in
      go [ 2; 4 ])

(* engine differential: Frontier.run vs the boxed reference engine.
   Three algorithms so both message representations are exercised —
   heap payloads (int lists) and unboxed-capable ones (floats) — and so
   the engine is also tied to flood_gather: the radius-3 ball ids an
   engine run gathers must equal the flood's knowledge. *)
let flood_ids_alg : (int list * int, int list, int) MP.algorithm =
  {
    MP.init = (fun inst v -> ([ Instance.id inst v ], 0));
    send = (fun (known, _) ~round:_ ~port:_ -> known);
    receive =
      (fun (known, stable) ~round:_ msgs ->
        let fresh =
          Array.fold_left
            (fun acc l -> List.filter (fun x -> not (List.mem x known)) l @ acc)
            [] msgs
          |> List.sort_uniq compare
        in
        if fresh = [] then Either.Right stable
        else Either.Left (fresh @ known, stable + 1));
  }

let float_sum_alg : (float, float, float) MP.algorithm =
  {
    MP.init = (fun _ v -> float_of_int (v + 1));
    send = (fun x ~round:_ ~port:_ -> x);
    receive =
      (fun x ~round msgs ->
        let s = Array.fold_left ( +. ) x msgs in
        if round >= 2 then Either.Right s else Either.Left s);
  }

(* gather the radius-[radius] ball's ids, halting on an explicit hop
   counter carried in the state (so the round-numbering convention
   cannot skew the comparison with flood_gather) *)
let ball_ids_alg radius : (int list * int, int list, int list) MP.algorithm =
  {
    MP.init = (fun inst v -> ([ Instance.id inst v ], 0));
    send = (fun (known, _) ~round:_ ~port:_ -> known);
    receive =
      (fun (known, hops) ~round:_ msgs ->
        let known =
          List.sort_uniq compare
            (Array.fold_left (fun acc l -> l @ acc) known msgs)
        in
        if hops + 1 >= radius then Either.Right known
        else Either.Left (known, hops + 1));
  }

(* Frontier.run at every density threshold (default switch, forced
   always-dense [0], forced always-sparse [n + 1]) must reproduce the
   boxed reference's outputs, per-node round counts and max_rounds, and
   under audit its locality certificate modulo the engine tag. Swept at
   1, 2 and 4 domains. *)
let engine_vs_boxed (recipe, seed) =
  let g = Gen_graph.to_graph recipe in
  let inst = Instance.create ~seed g in
  let n = G.n g in
  let radius = 3 in
  let thresholds = [ ("switch", None); ("dense", Some 0); ("sparse", Some (n + 1)) ] in
  let frontier thr alg =
    match thr with
    | None -> Frontier.run inst alg
    | Some t -> Frontier.run ~dense_threshold:t inst alg
  in
  let check_alg : type st msg out. string -> (st, msg, out) MP.algorithm -> verdict =
   fun label alg ->
    let boxed = Reference.run_boxed inst alg in
    let rec go = function
      | [] -> Ok ()
      | (tname, thr) :: rest ->
        let fr = frontier thr alg in
        let& () =
          requiref
            (fr.Frontier.outputs = boxed.Reference.outputs)
            "%s/%s: outputs differ from the boxed engine" label tname
        in
        let& () =
          requiref
            (fr.Frontier.rounds = boxed.Reference.rounds)
            "%s/%s: per-node rounds differ from the boxed engine" label tname
        in
        let& () =
          requiref
            (fr.Frontier.max_rounds = boxed.Reference.max_rounds)
            "%s/%s: max_rounds %d, boxed %d" label tname
            fr.Frontier.max_rounds boxed.Reference.max_rounds
        in
        go rest
    in
    go thresholds
  in
  let ball_matches_flood label =
    let outputs = (Frontier.run inst (ball_ids_alg radius)).Frontier.outputs in
    let fl = MP.flood_gather inst ~radius (fun v -> Instance.id inst v) in
    let derived =
      Array.init n (fun v ->
          List.sort_uniq compare
            (Instance.id inst v :: List.concat (Array.to_list fl.(v))))
    in
    requiref (outputs = derived)
      "%s: engine-run ball ids differ from flood_gather knowledge" label
  in
  let certs label =
    let declared =
      let r = (Reference.run_boxed inst flood_ids_alg).Reference.rounds in
      fun v -> max 1 r.(v)
    in
    let strip c = { c with Prov.c_engine = "" } in
    let cert run = snd (Audit.certify_run inst ~declared run) in
    let cb = cert (fun () -> ignore (Reference.run_boxed inst flood_ids_alg)) in
    let cf = cert (fun () -> ignore (Frontier.run inst flood_ids_alg)) in
    requiref (strip cb = strip cf) "%s: certificates differ from the boxed engine"
      label
  in
  let saved = Pool.size () in
  Fun.protect
    ~finally:(fun () -> Pool.set_size saved)
    (fun () ->
      let rec go = function
        | [] -> Ok ()
        | s :: rest ->
          Pool.set_size s;
          let label = Printf.sprintf "%dd" s in
          let& () = check_alg ("ids@" ^ label) flood_ids_alg in
          let& () = check_alg ("float@" ^ label) float_sum_alg in
          let& () = check_alg ("ball@" ^ label) (ball_ids_alg radius) in
          let& () = ball_matches_flood ("ball@" ^ label) in
          let& () = certs ("cert@" ^ label) in
          go rest
      in
      go [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* gadget: Check × Verifier × Psi × Ne_psi *)

let bfs_dist g src =
  let n = G.n g in
  let d = Array.make n (-1) in
  let q = Queue.create () in
  d.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun w ->
        if d.(w) < 0 then begin
          d.(w) <- d.(u) + 1;
          Queue.add w q
        end)
      (G.neighbors g u)
  done;
  d

let gadget (case : Gen_gadget.case) =
  let delta = max 1 case.Gen_gadget.delta in
  let t, fault = Gen_gadget.build case in
  let n = G.n t.GL.graph in
  let structurally_valid = Check.is_valid ~delta t in
  let& () =
    requiref
      (structurally_valid = (fault = None))
      "Check says %s but a fault %s planted"
      (if structurally_valid then "valid" else "invalid")
      (if fault = None then "was not" else "was")
  in
  let out, _ = V.run ~delta ~n t in
  let& () =
    requiref
      (Psi.is_valid ~delta t out)
      "verifier output does not satisfy Psi"
  in
  let sol, _ = NP.prove ~delta ~n t in
  let& () =
    requiref (NP.is_valid ~delta t sol) "node-edge proof rejected by Ne_psi"
  in
  match fault with
  | None ->
    requiref (V.is_all_ok out) "verifier claims error on a valid gadget"
  | Some f ->
    let& () =
      requiref (not (V.is_all_ok out)) "verifier claims GadOk on a corrupted gadget"
    in
    (* every Error of the proof must localize the planted fault *)
    let dists = List.map (bfs_dist t.GL.graph) f.Corrupt.f_sites in
    let errors = ref [] in
    Array.iteri (fun v o -> if o = Psi.Error then errors := v :: !errors) out;
    let& () = require (!errors <> []) "corrupted gadget but no Error output" in
    let far =
      List.filter
        (fun v ->
          List.for_all
            (fun d -> d.(v) < 0 || d.(v) > Corrupt.fault_radius)
            dists)
        !errors
    in
    requiref (far = [])
      "Error nodes %s are farther than %d from the fault (%s)"
      (String.concat "," (List.map string_of_int far))
      Corrupt.fault_radius
      (Format.asprintf "%a" Corrupt.pp_fault f)

(* ------------------------------------------------------------------ *)

let padding (level, target, seed) =
  let stats = Spec.run_hard (H.level level) ~seed ~target in
  let& () =
    requiref stats.Spec.det_valid "deterministic padded solution invalid (n=%d)"
      stats.Spec.n
  in
  requiref stats.Spec.rand_valid "randomized padded solution invalid (n=%d)"
    stats.Spec.n

let provenance (reg, seed) =
  let g = Gen_graph.to_regular reg in
  let inst = Instance.create ~seed g in
  let out, m = SO.solve_deterministic inst in
  let cert =
    Audit.run_flood ~label:"fuzz-so-det" inst ~declared:(Meter.declared m)
  in
  let& () =
    requiref cert.Prov.c_ok "solver flood certificate failed (%d violations)"
      (List.length cert.Prov.c_violations)
  in
  let verdict, cert2 =
    DC.audited_run ~label:"fuzz-dcheck" SO.problem inst ~input:(unit_input g)
      ~output:out
  in
  let& () = require verdict.DC.all_accept "distributed checker rejects solver output" in
  requiref cert2.Prov.c_ok "checker certificate failed (%d violations)"
    (List.length cert2.Prov.c_violations)
