module G = Repro_graph.Multigraph
module Pool = Repro_local.Pool

(* View fields are mutable so [sweep] can refill one scratch view per
   pool slot instead of allocating a view per node/edge per check.
   Check functions receive views by reference and must not retain
   them. *)
type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view = {
  mutable degree : int;
  mutable v_in : 'vi;
  mutable v_out : 'vo;
  mutable e_in : 'ei array;
  mutable e_out : 'eo array;
  mutable b_in : 'bi array;
  mutable b_out : 'bo array;
}

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view = {
  mutable self_loop : bool;
  mutable u_in : 'vi;
  mutable u_out : 'vo;
  mutable w_in : 'vi;
  mutable w_out : 'vo;
  mutable ee_in : 'ei;
  mutable ee_out : 'eo;
  mutable bu_in : 'bi;
  mutable bu_out : 'bo;
  mutable bw_in : 'bi;
  mutable bw_out : 'bo;
}

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t = {
  name : string;
  check_node : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view -> bool;
  check_edge : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view -> bool;
}

type violation = Node of int | Edge of int

let pp_violation fmt = function
  | Node v -> Format.fprintf fmt "node %d" v
  | Edge e -> Format.fprintf fmt "edge %d" e

(* refill [nv] for node [v]; the caller guarantees the view's arrays have
   length [degree v] (views are cached per degree) *)
let fill_node_view g ~(input : _ Labeling.t) ~(output : _ Labeling.t) nv v =
  let off = G.ports_off g and prt = G.ports_flat g in
  let lo = off.(v) in
  let d = off.(v + 1) - lo in
  nv.degree <- d;
  nv.v_in <- input.Labeling.v.(v);
  nv.v_out <- output.Labeling.v.(v);
  for i = 0 to d - 1 do
    let h = prt.(lo + i) in
    let e = G.edge_of_half h in
    nv.e_in.(i) <- input.Labeling.e.(e);
    nv.e_out.(i) <- output.Labeling.e.(e);
    nv.b_in.(i) <- input.Labeling.b.(h);
    nv.b_out.(i) <- output.Labeling.b.(h)
  done

let node_view g ~(input : _ Labeling.t) ~(output : _ Labeling.t) v =
  let d = G.degree g v in
  let h0 = if d = 0 then 0 else G.half_at g v 0 in
  (* seed the arrays from real label values so they get the element
     type's representation, then fill in place *)
  let make a i = if d = 0 then [||] else Array.make d a.(i) in
  let nv =
    {
      degree = d;
      v_in = input.Labeling.v.(v);
      v_out = output.Labeling.v.(v);
      e_in = make input.Labeling.e (G.edge_of_half h0);
      e_out = make output.Labeling.e (G.edge_of_half h0);
      b_in = make input.Labeling.b h0;
      b_out = make output.Labeling.b h0;
    }
  in
  fill_node_view g ~input ~output nv v;
  nv

let fill_edge_view g ~(input : _ Labeling.t) ~(output : _ Labeling.t) ev e =
  let hu = 2 * e in
  let hw = (2 * e) + 1 in
  let u = G.half_node g hu and w = G.half_node g hw in
  ev.self_loop <- u = w;
  ev.u_in <- input.Labeling.v.(u);
  ev.u_out <- output.Labeling.v.(u);
  ev.w_in <- input.Labeling.v.(w);
  ev.w_out <- output.Labeling.v.(w);
  ev.ee_in <- input.Labeling.e.(e);
  ev.ee_out <- output.Labeling.e.(e);
  ev.bu_in <- input.Labeling.b.(hu);
  ev.bu_out <- output.Labeling.b.(hu);
  ev.bw_in <- input.Labeling.b.(hw);
  ev.bw_out <- output.Labeling.b.(hw)

let edge_view g ~(input : _ Labeling.t) ~(output : _ Labeling.t) e =
  let u, w = G.endpoints g e in
  let hu, hw = G.halves_of_edge e in
  {
    self_loop = u = w;
    u_in = input.Labeling.v.(u);
    u_out = output.Labeling.v.(u);
    w_in = input.Labeling.v.(w);
    w_out = output.Labeling.v.(w);
    ee_in = input.Labeling.e.(e);
    ee_out = output.Labeling.e.(e);
    bu_in = input.Labeling.b.(hu);
    bu_out = output.Labeling.b.(hu);
    bw_in = input.Labeling.b.(hw);
    bw_out = output.Labeling.b.(hw);
  }

type bad = { bad_nodes : int list; bad_edges : int list }

(* Two pool loops: index [v] of the first evaluates C_N at node [v],
   index [e] of the second C_E at edge [e] in the canonical orientation
   of [fill_edge_view], so each node and each edge is evaluated exactly
   once and the labels are read in id order. Each slot keeps one node
   view per degree (the arrays are degree-sized), one edge view, and
   its own lists of bad nodes and edges. The union of those lists does
   not depend on which slot ran which index, so sorting it gives the
   same result at every pool size; and a valid output costs no
   O(n + m) flag array. *)
let sweep p g ~input ~output =
  let slots = Pool.worker_slots () in
  let nvs = Array.init slots (fun _ -> Array.make (G.max_degree g + 1) None) in
  let evs = Array.make slots None in
  let bad_nodes = Array.make slots [] and bad_edges = Array.make slots [] in
  Pool.parallel_for ~grain:400 ~n:(G.n g) (fun v ->
      let wi = Pool.worker_index () in
      let d = G.degree g v in
      let nv =
        match nvs.(wi).(d) with
        | Some nv -> nv
        | None ->
          let nv = node_view g ~input ~output v in
          nvs.(wi).(d) <- Some nv;
          nv
      in
      fill_node_view g ~input ~output nv v;
      if not (p.check_node nv) then bad_nodes.(wi) <- v :: bad_nodes.(wi));
  Pool.parallel_for ~grain:200 ~n:(G.m g) (fun e ->
      let wi = Pool.worker_index () in
      let ev =
        match evs.(wi) with
        | Some ev -> ev
        | None ->
          let ev = edge_view g ~input ~output e in
          evs.(wi) <- Some ev;
          ev
      in
      fill_edge_view g ~input ~output ev e;
      if not (p.check_edge ev) then bad_edges.(wi) <- e :: bad_edges.(wi));
  let ascending per_slot =
    List.sort Int.compare (Array.fold_left List.rev_append [] per_slot)
  in
  { bad_nodes = ascending bad_nodes; bad_edges = ascending bad_edges }

let violations p g ~input ~output =
  let b = sweep p g ~input ~output in
  List.map (fun v -> Node v) b.bad_nodes
  @ List.map (fun e -> Edge e) b.bad_edges

let is_valid p g ~input ~output = violations p g ~input ~output = []
