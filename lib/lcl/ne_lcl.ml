module G = Repro_graph.Multigraph
module Pool = Repro_local.Pool

(* A view is a window: the label arrays it reads plus the positions of
   one node or edge in them. [sweep] moves one window per pool slot
   from node to node by writing its int fields only; no label is ever
   copied into a view. Check functions receive views by reference and
   must not retain them. *)
type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view = {
  mutable vi : 'vi array;
  mutable vo : 'vo array;
  mutable ei : 'ei array;
  mutable eo : 'eo array;
  mutable bi : 'bi array;
  mutable bo : 'bo array;
  mutable ports : int array;
  mutable node : int;
  mutable lo : int;
  mutable degree : int;
  mutable edge_shift : int;
}

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view = {
  mutable uvi : 'vi array;
  mutable uvo : 'vo array;
  mutable wvi : 'vi array;
  mutable wvo : 'vo array;
  mutable eei : 'ei array;
  mutable eeo : 'eo array;
  mutable ubi : 'bi array;
  mutable ubo : 'bo array;
  mutable wbi : 'bi array;
  mutable wbo : 'bo array;
  mutable u : int;
  mutable w : int;
  mutable edge : int;
  mutable hu : int;
  mutable hw : int;
  mutable loop : bool;
}

let degree (nv : _ node_view) = nv.degree
let v_in (nv : _ node_view) = nv.vi.(nv.node)
let v_out (nv : _ node_view) = nv.vo.(nv.node)
let e_in (nv : _ node_view) i = nv.ei.(nv.ports.(nv.lo + i) lsr nv.edge_shift)
let e_out (nv : _ node_view) i = nv.eo.(nv.ports.(nv.lo + i) lsr nv.edge_shift)
let b_in (nv : _ node_view) i = nv.bi.(nv.ports.(nv.lo + i))
let b_out (nv : _ node_view) i = nv.bo.(nv.ports.(nv.lo + i))
let self_loop (ev : _ edge_view) = ev.loop
let u_in (ev : _ edge_view) = ev.uvi.(ev.u)
let u_out (ev : _ edge_view) = ev.uvo.(ev.u)
let w_in (ev : _ edge_view) = ev.wvi.(ev.w)
let w_out (ev : _ edge_view) = ev.wvo.(ev.w)
let ee_in (ev : _ edge_view) = ev.eei.(ev.edge)
let ee_out (ev : _ edge_view) = ev.eeo.(ev.edge)
let bu_in (ev : _ edge_view) = ev.ubi.(ev.hu)
let bu_out (ev : _ edge_view) = ev.ubo.(ev.hu)
let bw_in (ev : _ edge_view) = ev.wbi.(ev.hw)
let bw_out (ev : _ edge_view) = ev.wbo.(ev.hw)

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) t = {
  name : string;
  check_node : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view -> bool;
  check_edge : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view -> bool;
}

type violation = Node of int | Edge of int

let pp_violation fmt = function
  | Node v -> Format.fprintf fmt "node %d" v
  | Edge e -> Format.fprintf fmt "edge %d" e

(* windows onto [g]'s labelings, not yet at any node or edge *)
let graph_node_view g ~(input : _ Labeling.t) ~(output : _ Labeling.t) =
  {
    vi = input.Labeling.v;
    vo = output.Labeling.v;
    ei = input.Labeling.e;
    eo = output.Labeling.e;
    bi = input.Labeling.b;
    bo = output.Labeling.b;
    ports = G.ports_flat g;
    node = 0;
    lo = 0;
    degree = 0;
    edge_shift = 1;
  }

let graph_edge_view ~(input : _ Labeling.t) ~(output : _ Labeling.t) =
  {
    uvi = input.Labeling.v;
    uvo = output.Labeling.v;
    wvi = input.Labeling.v;
    wvo = output.Labeling.v;
    eei = input.Labeling.e;
    eeo = output.Labeling.e;
    ubi = input.Labeling.b;
    ubo = output.Labeling.b;
    wbi = input.Labeling.b;
    wbo = output.Labeling.b;
    u = 0;
    w = 0;
    edge = 0;
    hu = 0;
    hw = 0;
    loop = false;
  }

(* move a graph window to node [v] / edge [e]: ints only *)
let at_node off (nv : _ node_view) v =
  let lo = off.(v) in
  nv.node <- v;
  nv.lo <- lo;
  nv.degree <- off.(v + 1) - lo

let at_edge hn (ev : _ edge_view) e =
  let hu = 2 * e in
  let u = hn.(hu) and w = hn.(hu + 1) in
  ev.u <- u;
  ev.w <- w;
  ev.edge <- e;
  ev.hu <- hu;
  ev.hw <- hu + 1;
  ev.loop <- u = w

let node_view g ~input ~output v =
  let nv = graph_node_view g ~input ~output in
  at_node (G.ports_off g) nv v;
  nv

let edge_view g ~input ~output e =
  let ev = graph_edge_view ~input ~output in
  at_edge (G.half_node_flat g) ev e;
  ev

type bad = { bad_nodes : int list; bad_edges : int list }

type ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) slot = {
  nv : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) node_view;
  ev : ('vi, 'ei, 'bi, 'vo, 'eo, 'bo) edge_view;
  mutable bad_ns : int list;
  mutable bad_es : int list;
}

(* Two pool loops: index [v] of the first evaluates C_N at node [v],
   index [e] of the second C_E at edge [e] in the canonical orientation
   of [at_edge], so each node and each edge is evaluated exactly once
   and the labels are read in id order. Each range of a loop runs on one
   domain and looks up its slot once. Each slot keeps one node window,
   one edge window and its own lists of bad nodes and edges, all padded
   onto cache lines of their own: a window's int fields are written at
   every index, and two slots sharing a line would make the domains
   invalidate each other's reads. The union of the bad lists does not
   depend on which slot ran which index, so sorting it gives the same
   result at every pool size; and a valid output costs no O(n + m) flag
   array. *)
let sweep p g ~input ~output =
  let slots =
    Array.init (Pool.worker_slots ()) (fun _ ->
        Pool.padded
          {
            nv = Pool.padded (graph_node_view g ~input ~output);
            ev = Pool.padded (graph_edge_view ~input ~output);
            bad_ns = [];
            bad_es = [];
          })
  in
  let off = G.ports_off g and hn = G.half_node_flat g in
  Pool.parallel_range ~grain:400 ~n:(G.n g) (fun lo hi ->
      let s = slots.(Pool.worker_index ()) in
      let nv = s.nv in
      for v = lo to hi - 1 do
        at_node off nv v;
        if not (p.check_node nv) then s.bad_ns <- v :: s.bad_ns
      done);
  Pool.parallel_range ~grain:200 ~n:(G.m g) (fun lo hi ->
      let s = slots.(Pool.worker_index ()) in
      let ev = s.ev in
      for e = lo to hi - 1 do
        at_edge hn ev e;
        if not (p.check_edge ev) then s.bad_es <- e :: s.bad_es
      done);
  let ascending bad =
    List.sort Int.compare
      (Array.fold_left (fun acc s -> List.rev_append (bad s) acc) [] slots)
  in
  {
    bad_nodes = ascending (fun s -> s.bad_ns);
    bad_edges = ascending (fun s -> s.bad_es);
  }

let violations p g ~input ~output =
  let b = sweep p g ~input ~output in
  List.map (fun v -> Node v) b.bad_nodes
  @ List.map (fun e -> Edge e) b.bad_edges

let is_valid p g ~input ~output = violations p g ~input ~output = []
