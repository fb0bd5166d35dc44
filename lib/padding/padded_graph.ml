module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Labeling = Repro_lcl.Labeling
module GL = Repro_gadget.Labels
open Padded_types

type t = {
  padded : G.t;
  delta : int;
  base : G.t;
  gadget_of : int -> GL.t;
  node_offset : int array;
  base_node_of : int array;
  port_edge_of : int array;
  edge_is_port : bool array;
  port_nodes : int array array;  (* base node -> padded id of Port_i at i-1 *)
  half_gad : int array;  (* padded half -> gadget half id, or -1 on PortEdges *)
  half_base : int array;  (* padded half -> base half id, or -1 on GadEdges *)
}

let find_ports (gl : GL.t) ~delta =
  let ports = Array.make delta (-1) in
  Array.iteri
    (fun v (nl : GL.node_label) ->
      match nl.GL.port with
      | Some i when i >= 1 && i <= delta -> ports.(i - 1) <- v
      | Some _ | None -> ())
    gl.GL.nodes;
  ports

(* The padded graph is assembled shard by shard, straight into flat
   arrays: node and edge offsets per base node are prefix sums, each
   gadget's internal edges land at their known slots, and the port
   edges follow — the same edge order the old Builder loop produced, so
   [of_half_node] yields a byte-identical graph (it assigns ports in
   half-edge order, exactly like [Builder.build]). No edge lists, no
   association lists, no Builder: at Π^i instances of 10^6+ padded
   nodes the peak allocation is the output arrays themselves. *)
let build base ~delta ~gadget_for =
  let nb = G.n base in
  let gadgets = Array.init nb gadget_for in
  let node_offset = Array.make nb 0 in
  let edge_offset = Array.make nb 0 in
  let total = ref 0 in
  let etotal = ref 0 in
  for v = 0 to nb - 1 do
    node_offset.(v) <- !total;
    edge_offset.(v) <- !etotal;
    total := !total + G.n gadgets.(v).GL.graph;
    etotal := !etotal + G.m gadgets.(v).GL.graph
  done;
  let mb = G.m base in
  let m_padded = !etotal + mb in
  let half_node = Array.make (2 * m_padded) 0 in
  let hg = Array.make (2 * m_padded) (-1) in
  let hb = Array.make (2 * m_padded) (-1) in
  let eip = Array.make m_padded false in
  (* gadget-internal edges first, per base node: padded edge
     [edge_offset.(v) + e] is gadget edge [e] of [v]'s gadget *)
  for v = 0 to nb - 1 do
    let gl = gadgets.(v) in
    let off = node_offset.(v) and eoff = edge_offset.(v) in
    G.iter_edges gl.GL.graph ~f:(fun e x y ->
        let pe = eoff + e in
        half_node.(2 * pe) <- off + x;
        half_node.((2 * pe) + 1) <- off + y;
        hg.(2 * pe) <- 2 * e;
        hg.((2 * pe) + 1) <- (2 * e) + 1)
  done;
  (* port edges for base edges, after all gadget edges *)
  let port_nodes =
    Array.init nb (fun v ->
        let ports = find_ports gadgets.(v) ~delta in
        Array.iteri
          (fun i p ->
            if p < 0 && i < G.degree base v then
              invalid_arg "Padded_graph.build: gadget missing a needed port")
          ports;
        Array.map (fun p -> if p >= 0 then node_offset.(v) + p else -1) ports)
  in
  let port_edge_of = Array.make mb (-1) in
  G.iter_edges base ~f:(fun e u v ->
      let hu, hv = G.halves_of_edge e in
      let pu = G.half_port base hu and pv = G.half_port base hv in
      if pu >= delta || pv >= delta then
        invalid_arg "Padded_graph.build: base degree exceeds delta";
      let nu = port_nodes.(u).(pu) and nv = port_nodes.(v).(pv) in
      let pe = !etotal + e in
      port_edge_of.(e) <- pe;
      half_node.(2 * pe) <- nu;
      half_node.((2 * pe) + 1) <- nv;
      hb.(2 * pe) <- hu;
      hb.((2 * pe) + 1) <- hv;
      eip.(pe) <- true);
  let padded = G.of_half_node ~n:!total ~m:m_padded half_node in
  let base_node_of = Array.make !total 0 in
  for v = 0 to nb - 1 do
    let size = G.n gadgets.(v).GL.graph in
    for i = 0 to size - 1 do
      base_node_of.(node_offset.(v) + i) <- v
    done
  done;
  {
    padded;
    delta;
    base;
    gadget_of = (fun v -> gadgets.(v));
    node_offset;
    base_node_of;
    port_edge_of;
    edge_is_port = eip;
    port_nodes;
    half_gad = hg;
    half_base = hb;
  }

let port_node t v i = t.port_nodes.(v).(i - 1)

(* Copies share their labels. The table is the labeling under
   construction, with a one-entry [==] cache on the gadget: base node
   [bv]'s copy takes the records of [bv - 1]'s when both carry the same
   gadget (and, for nodes, the same Π-input), else it gets fresh ones.
   [build] lays out each copy's nodes at [node_offset.(bv)] and its
   edges right after the previous copy's, so one [Array.blit] copies the
   previous copy's records. Every record is immutable, so sharing one
   is safe. *)
let input_labeling t ~base_input ~dei ~dbi =
  let g = t.padded in
  let nb = G.n t.base in
  let shares bv = bv > 0 && t.gadget_of bv == t.gadget_of (bv - 1) in
  let v_fresh pv =
    let bv = t.base_node_of.(pv) in
    {
      pi_v = base_input.Labeling.v.(bv);
      gad_v = (t.gadget_of bv).GL.nodes.(pv - t.node_offset.(bv));
    }
  in
  let v = if G.n g = 0 then [||] else Array.make (G.n g) (v_fresh 0) in
  for bv = 0 to nb - 1 do
    let off = t.node_offset.(bv) and size = G.n (t.gadget_of bv).GL.graph in
    if shares bv && base_input.Labeling.v.(bv) == base_input.Labeling.v.(bv - 1)
    then Array.blit v t.node_offset.(bv - 1) v off size
    else
      for pv = off to off + size - 1 do
        v.(pv) <- v_fresh pv
      done
  done;
  let gad_e = { pi_e = dei; etype = GadEdge } in
  let e =
    Array.init (G.m g) (fun pe ->
        if t.edge_is_port.(pe) then
          let bh = t.half_base.(2 * pe) in
          { pi_e = base_input.Labeling.e.(G.edge_of_half bh); etype = PortEdge }
        else gad_e)
  in
  let b_fresh ph =
    let pv = G.half_node g ph in
    let bv = t.base_node_of.(pv) in
    let gl = t.gadget_of bv in
    let gh = t.half_gad.(ph) in
    if gh >= 0 then
      {
        pi_b = dbi;
        gad_b =
          {
            Repro_gadget.Ne_psi.bl = gl.GL.halves.(gh);
            bcolor = gl.GL.half_color2.(gh);
            bflags = gl.GL.half_flags.(gh);
          };
      }
    else
      (* a port-edge half: carries the base half's Π-input; the gadget part
         is immaterial (Ψ_G ignores port edges) but kept well-typed *)
      let local = pv - t.node_offset.(bv) in
      {
        pi_b = base_input.Labeling.b.(t.half_base.(ph));
        gad_b =
          {
            Repro_gadget.Ne_psi.bl = GL.Up;
            bcolor = gl.GL.nodes.(local).GL.color2;
            bflags = GL.true_flags gl local;
          };
      }
  in
  let hm = 2 * G.m g in
  let b = if hm = 0 then [||] else Array.make hm (b_fresh 0) in
  (* the gadget halves, copy by copy; the port halves follow *)
  let first = ref 0 in
  for bv = 0 to nb - 1 do
    let size = 2 * G.m (t.gadget_of bv).GL.graph in
    if shares bv then Array.blit b (!first - size) b !first size
    else
      for ph = !first to !first + size - 1 do
        b.(ph) <- b_fresh ph
      done;
    first := !first + size
  done;
  for ph = !first to hm - 1 do
    b.(ph) <- b_fresh ph
  done;
  { Labeling.v; e; b }

let stretch_stats t =
  let total = ref 0.0 and count = ref 0 and worst = ref 0.0 in
  for v = 0 to G.n t.base - 1 do
    let gl = t.gadget_of v in
    let ports = find_ports gl ~delta:t.delta in
    let present = Array.to_list ports |> List.filter (fun p -> p >= 0) in
    List.iter
      (fun p ->
        let dist = T.bfs gl.GL.graph p in
        List.iter
          (fun q ->
            if q > p then begin
              let d = float_of_int dist.(q) in
              total := !total +. d;
              incr count;
              if d > !worst then worst := d
            end)
          present)
      present
  done;
  let mean = if !count = 0 then 0.0 else !total /. float_of_int !count in
  (mean, !worst)
