(* The checker is the one-round LOCAL algorithm of §2: node [v]'s
   verdict reads only labels inside its radius-1 ball. In the
   unbounded-bandwidth LOCAL model the far side's labels travel for
   free, so the round's verdicts are a function of which constraints
   fail: [v] rejects iff C_N fails at [v] or C_E fails on an edge at
   [v]. Both are what [Ne_lcl.sweep] reports, with each edge evaluated
   once; that equals evaluating it from both endpoints because every
   C_E is invariant under swapping its sides (a tested precondition).
   The verdicts are deterministic at every pool size because the sweep
   is. *)

module G = Repro_graph.Multigraph
module Obs = Repro_obs

type verdict = {
  accepts : bool array;
  all_accept : bool;
  rounds : int;
}

let counter = Obs.Registry.counter Obs.Registry.default
let m_runs = counter "lcl.dcheck.runs"
let m_rejecting = counter "lcl.dcheck.rejecting_nodes"

let run p inst ~input ~output =
  let g = inst.Repro_local.Instance.graph in
  let n = G.n g in
  let bad = Ne_lcl.sweep p g ~input ~output in
  let accepts = Array.make n true in
  let rejecting = ref 0 in
  let reject v =
    if accepts.(v) then begin
      accepts.(v) <- false;
      incr rejecting
    end
  in
  List.iter reject bad.Ne_lcl.bad_nodes;
  List.iter
    (fun e ->
      reject (G.half_node g (2 * e));
      reject (G.half_node g ((2 * e) + 1)))
    bad.Ne_lcl.bad_edges;
  Obs.Counter.incr m_runs;
  if Obs.Registry.enabled () then Obs.Counter.add m_rejecting !rejecting;
  {
    accepts;
    all_accept = !rejecting = 0;
    rounds = (if n = 0 then 0 else 1);
  }

(* the checker's declared bound: one round, by the definition of an LCL *)
let declared_rounds = 1

(* audited like every other solver: the declared one-round bound is
   replayed as an engine flood, and its certificate is exactly the one
   the checker's own round would produce — each node's influence is its
   radius-1 ball *)
let audited_run ?(label = "lcl.dcheck") p inst ~input ~output =
  let verdict = run p inst ~input ~output in
  ( verdict,
    Repro_local.Audit.run_flood ~label inst ~declared:(fun _ -> declared_rounds)
  )
