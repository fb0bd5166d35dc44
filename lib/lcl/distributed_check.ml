(* The checker is the one-round LOCAL algorithm of §2 evaluated as a
   single pass over the nodes: node [v]'s verdict reads only labels
   inside its radius-1 ball, and the message a port would deliver in
   that round is just the far side's half-edge — [G.mate] of the port's
   half, addressable straight from the CSR arrays. In the
   unbounded-bandwidth LOCAL model the far side's labels travel for
   free, and both endpoints share the [input]/[output] labelings, so the
   mate half id is enough to rebuild the edge view the far side would
   have shipped. So instead of running a round on the engine (mailbox
   arena, send phase, receive phase), every node view is evaluated in
   one [Pool] pass; the verdicts are deterministic for every pool size
   because each index writes only its own [accepts] slot.

   Constraint views are per-domain scratch records refilled in place
   (Ne_lcl.fill_node_view, and the edge-view fields set below), so a
   full check allocates O(domains . max_degree), not O(n + m). *)

module G = Repro_graph.Multigraph
module Pool = Repro_local.Pool
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
  let off = G.ports_off g and prt = G.ports_flat g in
  let slots = Pool.worker_slots () in
  let nv_scratch =
    Array.init slots (fun _ -> Array.make (G.max_degree g + 1) None)
  in
  let ev_scratch = Array.make slots None in
  let accepts = Array.make n false in
  (* one index = rebuild a node view and run the checker on it *)
  Pool.parallel_for ~grain:400 ~n (fun v ->
      let wi = Pool.worker_index () in
      let lo = off.(v) in
      let d = off.(v + 1) - lo in
      let nv =
        match nv_scratch.(wi).(d) with
        | Some nv ->
          Ne_lcl.fill_node_view g ~input ~output nv v;
          nv
        | None ->
          let nv = Ne_lcl.node_view g ~input ~output v in
          nv_scratch.(wi).(d) <- Some nv;
          nv
      in
      let node_ok = p.Ne_lcl.check_node nv in
      let edges_ok = ref true in
      for i = 0 to d - 1 do
        let h = prt.(lo + i) in
        let hw = G.mate h in
        let e = G.edge_of_half h in
        let w = G.half_node g hw in
        let ev =
          match ev_scratch.(wi) with
          | Some ev -> ev
          | None ->
            let ev = Ne_lcl.edge_view g ~input ~output e in
            ev_scratch.(wi) <- Some ev;
            ev
        in
        ev.Ne_lcl.self_loop <- w = v;
        ev.Ne_lcl.u_in <- input.Labeling.v.(v);
        ev.Ne_lcl.u_out <- output.Labeling.v.(v);
        ev.Ne_lcl.w_in <- input.Labeling.v.(w);
        ev.Ne_lcl.w_out <- output.Labeling.v.(w);
        ev.Ne_lcl.ee_in <- input.Labeling.e.(e);
        ev.Ne_lcl.ee_out <- output.Labeling.e.(e);
        ev.Ne_lcl.bu_in <- input.Labeling.b.(h);
        ev.Ne_lcl.bu_out <- output.Labeling.b.(h);
        ev.Ne_lcl.bw_in <- input.Labeling.b.(hw);
        ev.Ne_lcl.bw_out <- output.Labeling.b.(hw);
        if not (p.Ne_lcl.check_edge ev) then edges_ok := false
      done;
      accepts.(v) <- node_ok && !edges_ok);
  let accepted =
    Pool.run_fused
      (Pool.fused ~grain:5 (fun v -> if accepts.(v) then 1 else 0))
      ~n
  in
  Obs.Counter.incr m_runs;
  if Obs.Registry.enabled () then
    Obs.Counter.add m_rejecting (n - accepted);
  {
    accepts;
    all_accept = accepted = n;
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
