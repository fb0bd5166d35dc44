module G = Repro_graph.Multigraph
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool
module Obs = Repro_obs

type output = (bool, bool, unit) Labeling.t

let problem : (unit, unit, unit, bool, bool, unit) Ne_lcl.t =
  {
    name = "maximal-matching";
    check_node =
      (fun nv ->
        let matched_edges = ref 0 in
        for i = 0 to Ne_lcl.degree nv - 1 do
          if Ne_lcl.e_out nv i then incr matched_edges
        done;
        !matched_edges <= 1 && Ne_lcl.v_out nv = (!matched_edges > 0));
    check_edge =
      (fun ev ->
        (* a matched edge marks both endpoints; both-unmatched endpoints
           witness non-maximality *)
        let u = Ne_lcl.u_out ev and w = Ne_lcl.w_out ev in
        ((not (Ne_lcl.ee_out ev)) || (u && w)) && (u || w));
  }

let of_edges g matched =
  let node_matched = Array.make (G.n g) false in
  Array.iteri
    (fun e m ->
      if m then begin
        let u, v = G.endpoints g e in
        node_matched.(u) <- true;
        node_matched.(v) <- true
      end)
    matched;
  Labeling.init g
    ~v:(fun v -> node_matched.(v))
    ~e:(fun e -> matched.(e))
    ~b:(fun _ -> ())

let is_valid g output =
  let input = Labeling.const g ~v:() ~e:() ~b:() in
  Ne_lcl.is_valid problem g ~input ~output

let counter = Obs.Registry.counter Obs.Registry.default
let m_runs = counter "problems.matching.runs"
let m_palette = counter "problems.matching.palette_classes"
let m_matched = counter "problems.matching.matched_edges"

let solve inst =
  Obs.Counter.incr m_runs;
  let g = inst.Instance.graph in
  let coloring, meter = Coloring.solve inst in
  let color v = coloring.Labeling.v.(v) in
  let delta = max 1 (G.max_degree g) in
  (* proper edge coloring from the node coloring: the slot-A endpoint is
     the one with the smaller node color; two edges sharing a node differ
     in the shared node's port, and two differently-slotted edges cannot
     collide because adjacent node colors differ *)
  let edge_color e =
    let hu, hv = G.halves_of_edge e in
    let u = G.half_node g hu and v = G.half_node g hv in
    let (ca, pa), (cb, pb) =
      if color u < color v then
        ((color u, G.half_port g hu), (color v, G.half_port g hv))
      else ((color v, G.half_port g hv), (color u, G.half_port g hu))
    in
    ((ca * delta) + pa) + (((cb * delta) + pb) * (delta * (delta + 2)))
  in
  let palette = delta * (delta + 2) * delta * (delta + 2) in
  let matched = Array.make (G.m g) false in
  let node_matched = Array.make (G.n g) false in
  (* color every edge once (the old sweep recomputed edge_color for all m
     edges in each of the palette classes), bucket by class, then run one
     parallel step per class: same-class edges never share an endpoint
     (the edge coloring is proper), so each edge reads and writes only
     endpoints no other edge of its class touches *)
  let edge_class = Pool.tabulate ~grain:150 (G.m g) edge_color in
  let bucket = Array.make palette [] in
  for e = G.m g - 1 downto 0 do
    bucket.(edge_class.(e)) <- e :: bucket.(edge_class.(e))
  done;
  for cls = 0 to palette - 1 do
    match bucket.(cls) with
    | [] -> ()
    | edges ->
      let edges = Array.of_list edges in
      Pool.parallel_for ~grain:40 ~n:(Array.length edges) (fun i ->
          let e = edges.(i) in
          let u, v = G.endpoints g e in
          if (not node_matched.(u)) && not node_matched.(v) then begin
            matched.(e) <- true;
            node_matched.(u) <- true;
            node_matched.(v) <- true
          end)
  done;
  if Obs.Registry.enabled () then begin
    Obs.Counter.add m_palette palette;
    Obs.Counter.add m_matched
      (Array.fold_left (fun a b -> if b then a + 1 else a) 0 matched)
  end;
  (* the sweep is one round per palette class *)
  Meter.charge_all meter (Meter.max_radius meter + palette);
  (of_edges g matched, meter)
