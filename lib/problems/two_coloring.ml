module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter

type output = (int, unit, unit) Labeling.t

let problem : (unit, unit, unit, int, unit, unit) Ne_lcl.t =
  {
    name = "2-coloring";
    check_node = (fun nv -> Ne_lcl.v_out nv = 0 || Ne_lcl.v_out nv = 1);
    check_edge =
      (fun ev ->
        (not (Ne_lcl.self_loop ev)) && Ne_lcl.u_out ev <> Ne_lcl.w_out ev);
  }

let is_valid g output =
  let input = Labeling.const g ~v:() ~e:() ~b:() in
  Ne_lcl.is_valid problem g ~input ~output

let two_color g =
  (* BFS parity per component from the smallest node; None if odd cycle *)
  let n = G.n g in
  let color = Array.make n (-1) in
  let ok = ref true in
  for s = 0 to n - 1 do
    if color.(s) < 0 then begin
      color.(s) <- 0;
      let q = Queue.create () in
      Queue.add s q;
      while not (Queue.is_empty q) do
        let v = Queue.take q in
        G.iter_halves g v ~f:(fun h ->
            let w = G.half_node g (G.mate h) in
            if color.(w) < 0 then begin
              color.(w) <- 1 - color.(v);
              Queue.add w q
            end
            else if color.(w) = color.(v) then ok := false)
      done
    end
  done;
  if !ok then Some color else None

let is_bipartite g = two_color g <> None

let solve inst =
  let g = inst.Instance.graph in
  let n = G.n g in
  match two_color g with
  | None -> invalid_arg "Two_coloring.solve: graph is not bipartite"
  | Some color ->
    let meter = Meter.create n in
    (* global charge: a node must learn its parity relative to the
       component anchor, i.e. see across the component *)
    let comp, ncomp = T.components g in
    let comp_first = Array.make ncomp (-1) in
    for v = n - 1 downto 0 do
      comp_first.(comp.(v)) <- v
    done;
    for c = 0 to ncomp - 1 do
      let d0 = T.bfs g comp_first.(c) in
      let a = ref comp_first.(c) in
      Array.iteri (fun v d -> if comp.(v) = c && d > d0.(!a) then a := v) d0;
      let da = T.bfs g !a in
      for v = 0 to n - 1 do
        if comp.(v) = c then Meter.charge meter v (max 1 da.(v))
      done
    done;
    let out = Labeling.init g ~v:(fun v -> color.(v)) ~e:(fun _ -> ()) ~b:(fun _ -> ()) in
    (out, meter)

let hard_instance ~n =
  let n = if n mod 2 = 0 then n else n + 1 in
  Repro_graph.Generators.cycle (max 4 n)
