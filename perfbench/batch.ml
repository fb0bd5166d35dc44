(* The two batch workloads: one op is a whole pipeline on a fresh
   instance whose seed derives from the workload seed. Every public call
   an op makes runs under a [Layers.span]; the spans are inert unless the
   traced pass armed the recorder. *)

module G = Core.Graph.Multigraph
module Instance = Core.Local.Instance
module Meter = Core.Local.Meter
module Frontier = Core.Local.Frontier
module Audit = Core.Local.Audit
module SO = Core.Problems.Sinkless_orientation
module Spec = Core.Padding.Spec
module H = Core.Padding.Hierarchy
module Pi = Core.Padding.Pi_prime
module PT = Core.Padding.Padded_types
module Family = Core.Gadget.Family
module DC = Core.Lcl.Distributed_check
module Labeling = Core.Lcl.Labeling

let span = Layers.span

type outcome = {
  nodes : int;
  rounds_det : float;
      (** metered rounds of the op's deterministic algorithm: the Π² solver,
          or on frontier-100k (which runs no deterministic solver) the
          engine-metered rounds of the replay *)
  rounds_rand : float;
  failures : string list;  (** failed output checks; [] when the op is correct *)
}

type t = {
  pool : int;  (** pool size the workload runs at *)
  op : plant:bool -> int -> outcome;
      (** one op on the instance of the given seed; [plant] corrupts its
          output before the checks, which must then fail *)
  warm_up : int -> outcome;
      (** the untimed work of one set-up: enough to spawn and calibrate
          the pool and page in code and heap *)
}

let check name ok acc = if ok then acc else name :: acc

(* Π² = pad(Π¹) with the (log, Δ)-gadget family: exactly what
   [Hierarchy.level 2] builds, assembled here from the same parts so the
   gadget family's [make]/[prove] and the base solvers run under their own
   spans. The self-test compares its rounds with [Spec.run_hard]. *)
let pi2 =
  let base = H.sinkless_orientation in
  let so =
    {
      base with
      Spec.solve_det = (fun i x -> span "problems.so_det" (fun () -> base.Spec.solve_det i x));
      solve_rand = (fun i x -> span "problems.so_rand" (fun () -> base.Spec.solve_rand i x));
      hard_instance =
        (fun rng ~target -> span "graph.gen" (fun () -> base.Spec.hard_instance rng ~target));
    }
  in
  let fam = Family.log_family ~delta:(Pi.delta_of base) in
  let fam =
    {
      fam with
      Family.make = (fun ~target -> span "gadget.build" (fun () -> fam.Family.make ~target));
      prove = (fun ~n l -> span "gadget.prove" (fun () -> fam.Family.prove ~n l));
    }
  in
  Pi.pad_with fam so

(* the planted fault: flip one node's port-error claim, which constraint 3
   of Π' pins down exactly (PortErr2 iff a port node has ≠ 1 port edges) *)
let corrupt_pi2 (out : ((_, _, _, _, _, _) PT.pv_out, _, _) Labeling.t) =
  let o = out.Labeling.v.(0) in
  out.Labeling.v.(0) <-
    { o with PT.perr = (if o.PT.perr = PT.PortErr2 then PT.NoPortErr else PT.PortErr2) }

(* one Π² pipeline on the instance of [seed] *)
let pi2_once ~target ~plant seed =
  let rng = Random.State.make [| seed |] in
  let g, input =
    span "padding.build" (fun () -> pi2.Spec.hard_instance rng ~target)
  in
  let inst = span "local.instance" (fun () -> Instance.create ~seed g) in
  let out_d, m_d = span "padding.solve_det" (fun () -> pi2.Spec.solve_det inst input) in
  let out_r, m_r = span "padding.solve_rand" (fun () -> pi2.Spec.solve_rand inst input) in
  if plant then corrupt_pi2 out_d;
  let valid out = span "lcl.check" (fun () -> Spec.is_valid pi2 g ~input ~output:out) in
  let det_ok = valid out_d and rand_ok = valid out_r in
  let verdict =
    span "lcl.dcheck" (fun () -> DC.run pi2.Spec.problem inst ~input ~output:out_d)
  in
  {
    nodes = G.n g;
    rounds_det = float_of_int (Meter.max_radius m_d);
    rounds_rand = float_of_int (Meter.max_radius m_r);
    failures =
      []
      |> check "det output invalid" det_ok
      |> check "rand output invalid" rand_ok
      |> check "dcheck rejected det output" verdict.DC.all_accept;
  }

(* One op is one Π² pipeline at target 10⁴ (n ≈ 1.2·10⁴), about 0.15 s:
   short enough that a run times a few hundred of them. *)
let pi2_pipeline ~quick =
  let target = if quick then 3_000 else 10_000 in
  let op ~plant seed = pi2_once ~target ~plant seed in
  { pool = 1; op; warm_up = op ~plant:false }

(* the frontier-replay profile: a 12-round flood whose node v halts
   after round 1 + (7919·v mod 12), so the live set shrinks every round *)
let replay_rounds = 12
let replay_radius v = 1 + (v * 7919 mod replay_rounds)
let replay_alg = Audit.flood_algorithm ~actual:replay_radius

let frontier_100k ~quick =
  let n = if quick then 20_000 else 100_000 in
  let op ~plant seed =
    let g = span "graph.gen" (fun () -> SO.hard_instance (Random.State.make [| seed |]) ~n) in
    let inst = span "local.instance" (fun () -> Instance.create ~seed g) in
    let out, m = span "problems.wave" (fun () -> SO.solve_randomized_frontier inst) in
    let replay = span "local.replay" (fun () -> Frontier.run inst replay_alg) in
    if plant then out.Labeling.b.(0) <- (if out.Labeling.b.(0) = SO.Out then SO.In else SO.Out);
    let replay_ok =
      replay.Frontier.max_rounds = replay_rounds
      && Array.for_all Fun.id (Array.mapi (fun v r -> r = replay_radius v) replay.Frontier.rounds)
    in
    let wave_ok = span "lcl.check" (fun () -> SO.is_valid g out) in
    let verdict =
      span "lcl.dcheck" (fun () ->
          DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out)
    in
    {
      nodes = G.n g;
      rounds_det = float_of_int replay.Frontier.max_rounds;
      rounds_rand = float_of_int (Meter.max_radius m);
      failures =
        []
        |> check "wave output not sinkless" wave_ok
        |> check "replay rounds differ from the profile" replay_ok
        |> check "dcheck rejected wave output" verdict.DC.all_accept;
    }
  in
  { pool = 2; op; warm_up = op ~plant:false }
