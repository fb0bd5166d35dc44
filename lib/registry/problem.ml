module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Audit = Repro_local.Audit
module MP = Repro_local.Message_passing
module DC = Repro_lcl.Distributed_check
module Labeling = Repro_lcl.Labeling
module P = Repro_problems
module SO = P.Sinkless_orientation
module GB = Repro_gadget.Build
module GL = Repro_gadget.Labels
module V = Repro_gadget.Verifier
module Spec = Repro_padding.Spec
module Fit = Repro_stats.Fit
module Prov = Repro_obs.Provenance

type solved = { rounds : int; valid : bool; output : string }

type 'i solver = {
  name : string;
  declared : Fit.model;
  row : ('i -> int) option;
  dump : ('i -> solved) option;
  audit : ('i -> Prov.certificate) option;
  orient : ('i -> SO.output * Meter.t) option;
}

type 'i problem = { family : seed:int -> n:int -> 'i; solvers : 'i solver list }
type t = Problem : 'i problem -> t

let solver ?row ?dump ?audit ?orient name declared =
  { name; declared; row; dump; audit; orient }

(* a metered solver: its landscape cell is the largest radius it charged,
   its audit replays the measured per-node radii as an engine flood under
   the provenance auditor, its dump renders the labeling it returned *)
let metered ?(row = false) ?(audit = false) ?dump ?orient name declared solve =
  let opt b f = if b then Some f else None in
  solver name declared ?orient
    ?row:(opt row (fun inst -> Meter.max_radius (snd (solve inst))))
    ?audit:
      (opt audit (fun inst ->
           Audit.run_flood ~label:name inst
             ~declared:(Meter.declared (snd (solve inst)))))
    ?dump:
      (Option.map
         (fun render inst ->
           let out, meter = solve inst in
           render name inst meter out)
         dump)

(* ------------------------------------------------------------------ *)
(* instance families *)

let hard_so_graph ~seed ~n = SO.hard_instance (Random.State.make [| seed |]) ~n
let hard_so ~seed ~n = Instance.create ~seed (hard_so_graph ~seed ~n)

let simple_regular ~seed ~n =
  Instance.create ~seed
    (Gen.random_simple_regular (Random.State.make [| seed |]) ~n ~d:3)

(* the smallest Δ = 3 gadget with at least n nodes, up to height 14 *)
let gadget ~seed:_ ~n =
  GB.gadget ~delta:3 ~height:(min 14 (GB.height_for ~delta:3 ~target:n))

(* ------------------------------------------------------------------ *)
(* canonical dumps: a header naming the family, then the lines of each
   node in order *)

let render name inst ~rounds ~valid node =
  let n = G.n inst.Instance.graph in
  let buf = Buffer.create (64 + (8 * n)) in
  Printf.bprintf buf
    "repro-solve/1 problem=%s n=%d seed=%d rounds=%d valid=%b\n" name n
    inst.Instance.seed rounds valid;
  for v = 0 to n - 1 do
    node buf v
  done;
  { rounds; valid; output = Buffer.contents buf }

let node_labels is_valid int_of name inst meter out =
  render name inst ~rounds:(Meter.max_radius meter)
    ~valid:(is_valid inst.Instance.graph out) (fun buf v ->
      Printf.bprintf buf "%d %d\n" v (int_of out.Labeling.v.(v)))

let bit b = if b then 1 else 0
let flood_radius = 3

let flood_dump inst =
  let by_round =
    MP.flood_gather inst ~radius:flood_radius (fun v -> Instance.id inst v)
  in
  render "flood" inst ~rounds:flood_radius ~valid:true (fun buf v ->
      Array.iteri
        (fun r ids ->
          Printf.bprintf buf "%d %d:" v r;
          List.iter (Printf.bprintf buf " %d") ids;
          Buffer.add_char buf '\n')
        by_round.(v))

(* the one-round distributed check of a deterministic SO solution *)
let dcheck check inst =
  let output, _ = SO.solve_deterministic inst in
  check SO.problem inst ~input:(SO.trivial_input inst.Instance.graph) ~output

let dcheck_dump inst =
  let verdict = dcheck DC.run inst in
  render "dcheck" inst ~rounds:verdict.DC.rounds ~valid:verdict.DC.all_accept
    (fun buf v -> Printf.bprintf buf "%d %d\n" v (bit verdict.DC.accepts.(v)))

let dcheck_audit inst =
  let audited p inst ~input ~output = DC.audited_run p inst ~input ~output in
  let verdict, cert = dcheck audited inst in
  if not verdict.DC.all_accept then
    failwith "registry: dcheck rejected a valid SO solution";
  cert

let verifier_audit t =
  let _, _, cert = V.audited_run ~delta:3 ~n:(G.n t.GL.graph) t in
  cert

(* ------------------------------------------------------------------ *)
(* the registry *)

let problem family solvers = Problem { family; solvers }

let sinkless_orientation =
  let so ?row name declared solve =
    metered ?row ~audit:true ~orient:solve name declared solve
  in
  {
    family = hard_so;
    solvers =
      [
        so "so-det" Fit.Log ~row:true SO.solve_deterministic;
        so "so-rand" Fit.LogLog ~row:true SO.solve_randomized;
        so "so-wave" Fit.LogLog (fun inst -> SO.solve_randomized_frontier inst);
      ];
  }

(* entries in [repro audit all] order; the landscape re-sorts its rows by
   declared class *)
let all =
  [
    Problem sinkless_orientation;
    problem simple_regular
      [
        metered "coloring" Fit.LogStar ~row:true ~audit:true
          ~dump:(node_labels P.Coloring.is_valid Fun.id)
          P.Coloring.solve;
      ];
    problem simple_regular
      [
        metered "mis" Fit.LogStar ~row:true ~audit:true
          ~dump:(node_labels P.Mis.is_valid bit)
          P.Mis.solve;
        metered "luby-mis" Fit.Log
          ~dump:(node_labels P.Luby.is_valid bit)
          P.Luby.solve;
      ];
    problem simple_regular
      [ metered "matching" Fit.LogStar ~row:true ~audit:true P.Matching.solve ];
    problem hard_so
      [ solver "dcheck" Fit.Constant ~dump:dcheck_dump ~audit:dcheck_audit ];
    problem gadget [ solver "verifier" Fit.Log ~audit:verifier_audit ];
    problem simple_regular [ solver "flood" Fit.Constant ~dump:flood_dump ];
    problem
      (fun ~seed ~n -> Instance.create ~seed (Gen.cycle n))
      [ metered "trivial" Fit.Constant ~row:true P.Trivial.solve ];
    (* one Lemma-4 run per (seed, n) feeds both Π² rows *)
    problem
      (fun ~seed ~n ->
        Spec.run_hard (Repro_padding.Hierarchy.level 2) ~seed ~target:n)
      [
        solver "pi2-rand" Fit.LogTimesLogLog ~row:(fun s -> s.Spec.rand_rounds);
        solver "pi2-det" Fit.LogSquared ~row:(fun s -> s.Spec.det_rounds);
      ];
    problem
      (fun ~seed ~n -> Instance.create ~seed (P.Two_coloring.hard_instance ~n))
      [ metered "2-coloring" Fit.Linear ~row:true P.Two_coloring.solve ];
  ]

(* ------------------------------------------------------------------ *)
(* lookups *)

(* every solver's runners, its family applied *)
let runners =
  List.concat_map
    (fun (Problem p) ->
      let on run ~seed ~n = run (p.family ~seed ~n) in
      List.map
        (fun s -> (s.name, Option.map on s.dump, Option.map on s.audit))
        p.solvers)
    all

let dump name =
  List.find_map (fun (s, d, _) -> if s = name then d else None) runners

let audit name =
  List.find_map (fun (s, _, a) -> if s = name then a else None) runners

let dump_names =
  List.filter_map (fun (s, d, _) -> Option.map (fun _ -> s) d) runners

let audit_names =
  List.filter_map (fun (s, _, a) -> Option.map (fun _ -> s) a) runners

(* the sinkless-orientation solvers, run by the daemon on cached instances *)
let orienters =
  List.filter_map
    (fun s -> Option.map (fun solve -> (s.name, solve)) s.orient)
    sinkless_orientation.solvers

let check_names = List.map fst orienters
let solve_names = check_names @ dump_names

let sinkless name =
  Option.map
    (fun solve ->
      let run ~seed g =
        let inst = Instance.create ~seed g in
        (inst, solve inst)
      in
      (hard_so_graph, run))
    (List.assoc_opt name orienters)

let unknown name known =
  Printf.sprintf "unknown problem %S (try: %s)" name (String.concat ", " known)

(* ------------------------------------------------------------------ *)
(* the Figure-1 landscape *)

type row = { name : string; declared : Fit.model; cells : int list }

let landscape sizes =
  List.concat_map
    (fun (Problem p) ->
      (* one draw per n at seed 2, read by every row of the problem *)
      let draws = lazy (List.map (fun n -> p.family ~seed:2 ~n) sizes) in
      List.filter_map
        (fun (s : _ solver) ->
          Option.map
            (fun rounds ->
              let cells = List.map rounds (Lazy.force draws) in
              { name = s.name; declared = s.declared; cells })
            s.row)
        p.solvers)
    all
  (* Fit's constructors are declared in Fit.all_models order *)
  |> List.stable_sort (fun (a : row) (b : row) -> compare a.declared b.declared)
