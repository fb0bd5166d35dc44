module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Bridges = Repro_graph.Bridges
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool
module Randomness = Repro_local.Randomness
module Obs = Repro_obs

(* solver telemetry (no-ops while the process registry is disabled);
   counts and histogram totals are schedule-oblivious, see DESIGN.md §9 *)
let counter = Obs.Registry.counter Obs.Registry.default
let histogram = Obs.Registry.histogram Obs.Registry.default
let m_det_runs = counter "problems.so.det.runs"
let m_det_trees = counter "problems.so.det.tree_components"
let m_det_cyclic = counter "problems.so.det.cyclic_classes"
let m_rand_runs = counter "problems.so.rand.runs"
let m_rand_sinks = counter "problems.so.rand.initial_sinks"
let m_rand_flips = counter "problems.so.rand.half_flips"
let m_rand_len = histogram "problems.so.rand.repair_len"

type orientation = Out | In

let pp_orientation fmt = function
  | Out -> Format.pp_print_string fmt "out"
  | In -> Format.pp_print_string fmt "in"

type output = (unit, unit, orientation) Labeling.t

(* some half from port [i] on is oriented out. A top-level recursion, not
   [Array.exists], which builds a closure per call: 6 words per checked
   node, on every SO node and every hypothetical node of Π'. Both
   constraints read the window's raw fields (Ne_lcl's raw window
   access), since they run at every node and edge of every SO check. *)
let rec has_out (nv : _ Ne_lcl.node_view) i =
  i < nv.degree && (nv.bo.(nv.ports.(nv.lo + i)) = Out || has_out nv (i + 1))

let problem : (unit, unit, unit, unit, unit, orientation) Ne_lcl.t =
  {
    name = "sinkless-orientation";
    check_node = (fun nv -> nv.degree < 3 || has_out nv 0);
    check_edge =
      (fun ev ->
        match (ev.ubo.(ev.hu), ev.wbo.(ev.hw)) with
        | Out, In | In, Out -> true
        | Out, Out | In, In -> false);
  }

let trivial_input g = Labeling.const g ~v:() ~e:() ~b:()

let is_valid g output =
  Ne_lcl.is_valid problem g ~input:(trivial_input g) ~output

let count_sinks g (output : output) =
  let sinks = ref 0 in
  for v = 0 to G.n g - 1 do
    if
      G.degree g v >= 3
      && not
           (G.fold_halves g v ~init:false ~f:(fun acc h ->
                acc || output.b.(h) = Out))
    then incr sinks
  done;
  !sinks

(* orient the edge of half [h] away from the node holding [h] *)
let orient_half (out : output) h =
  out.b.(h) <- Out;
  out.b.(G.mate h) <- In

(* ------------------------------------------------------------------ *)
(* Deterministic solver                                               *)
(* ------------------------------------------------------------------ *)

(* Orient a tree component away from its minimum-id root; every internal
   node then has an outgoing child edge and only the exempt leaves are
   sinks. Returns the diameter of the component for metering. *)
(* [seen]/[dist]/[qbuf] are solver-wide scratch (see solve_deterministic):
   tree components are disjoint from each other and from the cyclic
   classes, so [seen] needs no reset; [dist] is restored to -1 after each
   sweep via the queue contents *)
let solve_tree_component g ids out nodes ~seen ~dist ~qbuf =
  let root =
    List.fold_left
      (fun best v -> if ids.(v) < ids.(best) then v else best)
      (List.hd nodes) nodes
  in
  let head = ref 0 and tail = ref 0 in
  seen.(root) <- true;
  qbuf.(!tail) <- root;
  incr tail;
  while !head < !tail do
    let v = qbuf.(!head) in
    incr head;
    for i = 0 to G.degree g v - 1 do
      let h = G.half_at g v i in
      let w = G.half_node g (G.mate h) in
      if not seen.(w) then begin
        seen.(w) <- true;
        (* away from root: v -> w *)
        orient_half out h;
        qbuf.(!tail) <- w;
        incr tail
      end
    done
  done;
  (* exact tree diameter by double sweep *)
  let far_of src =
    let head = ref 0 and tail = ref 0 in
    dist.(src) <- 0;
    qbuf.(!tail) <- src;
    incr tail;
    let best_v = ref src and best_d = ref 0 in
    while !head < !tail do
      let v = qbuf.(!head) in
      incr head;
      let d = dist.(v) in
      if d > !best_d then begin
        best_v := v;
        best_d := d
      end;
      for i = 0 to G.degree g v - 1 do
        let h = G.half_at g v i in
        let w = G.half_node g (G.mate h) in
        if dist.(w) < 0 then begin
          dist.(w) <- d + 1;
          qbuf.(!tail) <- w;
          incr tail
        end
      done
    done;
    for k = 0 to !tail - 1 do
      dist.(qbuf.(k)) <- -1
    done;
    (!best_v, !best_d)
  in
  let u, _ = far_of root in
  let _, diameter = far_of u in
  diameter

(* In the subgraph of non-bridge edges restricted to the 2ecc class [c],
   find a short cycle near the minimum-id node of the class. Returns the
   cycle as a list of halves to orient (each half pointing "forward" along
   the cycle), or a single self-loop half. *)
(* [visited]/[parent_half]/[qbuf] are solver-wide scratch: the walk only
   touches nodes of class [c] and classes are disjoint, so neither array
   needs resetting between classes. [parent_half w] = the half (at the
   parent) whose mate leads to [w], or -1 at the root. *)
let find_class_cycle g is_bridge cls c root ~visited ~parent_half ~qbuf =
  let in_class v = cls.(v) = c in
  visited.(root) <- true;
  let head = ref 0 and tail = ref 0 in
  qbuf.(!tail) <- root;
  incr tail;
  let found = ref None in
  while !found = None && !head < !tail do
    let v = qbuf.(!head) in
    incr head;
    let dv = G.degree g v in
    let i = ref 0 in
    while !found = None && !i < dv do
      let h = G.half_at g v !i in
      incr i;
      let e = G.edge_of_half h in
      let w = G.half_node g (G.mate h) in
      if not is_bridge.(e) && in_class w then begin
        if w = v then found := Some (`Self_loop h)
        else begin
          let parent_edge_of v =
            if parent_half.(v) < 0 then -1
            else G.edge_of_half parent_half.(v)
          in
          if e = parent_edge_of v then ()
          else if not visited.(w) then begin
            visited.(w) <- true;
            parent_half.(w) <- h;
            qbuf.(!tail) <- w;
            incr tail
          end
          else found := Some (`Closing (h, v, w))
        end
      end
    done
  done;
  let ancestors v =
    (* nodes from the BFS root down to [v] *)
    let rec collect v acc =
      if parent_half.(v) < 0 then v :: acc
      else collect (G.half_node g parent_half.(v)) (v :: acc)
    in
    collect v []
  in
  match !found with
  | None -> None
  | Some (`Self_loop h) -> Some [ h ]
  | Some (`Closing (h, v, w)) ->
    (* cycle: path from lca to v, edge v->w, path from w back to lca.
       Build root-first ancestor chains and drop the common prefix. *)
    let av = Array.of_list (ancestors v) in
    let aw = Array.of_list (ancestors w) in
    let k = ref 0 in
    while
      !k < Array.length av
      && !k < Array.length aw
      && av.(!k) = aw.(!k)
    do
      incr k
    done;
    let lca_idx = !k - 1 in
    (* halves along lca -> v (each half points from parent to child) *)
    let down_v = ref [] in
    for i = Array.length av - 1 downto lca_idx + 1 do
      down_v := parent_half.(av.(i)) :: !down_v
    done;
    (* halves along w -> lca (pointing from child to parent: mates) *)
    let up_w = ref [] in
    for i = lca_idx + 1 to Array.length aw - 1 do
      up_w := G.mate parent_half.(aw.(i)) :: !up_w
    done;
    (* forward order: lca ->...-> v, then v->w, then w ->...-> lca *)
    Some (!down_v @ [ h ] @ List.rev !up_w)

let solve_deterministic inst =
  Obs.Counter.incr m_det_runs;
  let g = inst.Instance.graph in
  let ids = inst.Instance.ids in
  let n = G.n g in
  let out = Labeling.const g ~v:() ~e:() ~b:In in
  (* default: side 0 out, side 1 in (each edge owns its two halves) *)
  Pool.parallel_for ~grain:10 ~n:(G.m g) (fun e ->
      out.b.(2 * e) <- Out;
      out.b.((2 * e) + 1) <- In);
  let meter = Meter.create n in
  let comp, ncomp = T.components g in
  (* edges per component *)
  let comp_edges = Array.make ncomp 0 in
  G.iter_edges g ~f:(fun _ u _ -> comp_edges.(comp.(u)) <- comp_edges.(comp.(u)) + 1);
  let comp_nodes = Array.make ncomp [] in
  for v = n - 1 downto 0 do
    comp_nodes.(comp.(v)) <- v :: comp_nodes.(comp.(v))
  done;
  let is_bridge = Bridges.bridges g in
  let cls, nclass = Bridges.two_edge_connected_components g in
  (* class -> has at least one (non-bridge) edge *)
  let class_cyclic = Array.make (max 1 nclass) false in
  G.iter_edges g ~f:(fun e u _ ->
      if not is_bridge.(e) then class_cyclic.(cls.(u)) <- true);
  (* per-node charge computed for cyclic components *)
  let depth_in_class = Array.make n 0 in
  let class_charge = Array.make n 0 in
  (* charge of the cyclic machinery at each X node *)
  let in_x = Array.make n false in
  (* solver-wide scratch. 2ecc classes are node-disjoint, and tree
     components are disjoint from the cyclic region, so [seen] /
     [visited] / [parent_half] / [dist] stay valid across all the sweeps
     below without any resets (dist is restored to -1 only inside
     [solve_tree_component], where the same nodes are swept twice). *)
  let seen = Array.make (max 1 n) false in
  let visited = Array.make (max 1 n) false in
  let parent_half = Array.make (max 1 n) (-1) in
  let dist = Array.make (max 1 n) (-1) in
  let qbuf = Array.make (max 1 n) 0 in
  let qbuf2 = Array.make (max 1 n) 0 in
  (* handle cyclic classes *)
  let handled = Array.make (max 1 nclass) false in
  for v = 0 to n - 1 do
    let c = cls.(v) in
    if class_cyclic.(c) && not handled.(c) then begin
      handled.(c) <- true;
      Obs.Counter.incr m_det_cyclic;
      (* find the min-id root: scan the class by BFS over non-bridge
         edges; the queue prefix qbuf.(0 .. nmembers-1) doubles as the
         member list *)
      let root = ref v in
      let head = ref 0 and tail = ref 0 in
      seen.(v) <- true;
      qbuf.(!tail) <- v;
      incr tail;
      while !head < !tail do
        let x = qbuf.(!head) in
        incr head;
        if ids.(x) < ids.(!root) then root := x;
        for i = 0 to G.degree g x - 1 do
          let h = G.half_at g x i in
          let e = G.edge_of_half h in
          let w = G.half_node g (G.mate h) in
          if (not is_bridge.(e)) && cls.(w) = c && not seen.(w)
          then begin
            seen.(w) <- true;
            qbuf.(!tail) <- w;
            incr tail
          end
        done
      done;
      let nmembers = !tail in
      match
        find_class_cycle g is_bridge cls c !root ~visited ~parent_half
          ~qbuf:qbuf2
      with
      | None -> () (* cannot happen: cyclic class contains a cycle *)
      | Some cycle_halves ->
        List.iter (fun h -> orient_half out h) cycle_halves;
        let cycle_len = List.length cycle_halves in
        (* BFS inside the class from the cycle; every non-cycle class node
           points toward the cycle. Seeded in cycle order, deduped via the
           dist sentinel. *)
        let head = ref 0 and tail = ref 0 in
        List.iter
          (fun h ->
            let x = G.half_node g h in
            if dist.(x) < 0 then begin
              dist.(x) <- 0;
              qbuf2.(!tail) <- x;
              incr tail
            end)
          cycle_halves;
        while !head < !tail do
          let x = qbuf2.(!head) in
          incr head;
          let d = dist.(x) in
          for i = 0 to G.degree g x - 1 do
            let h = G.half_at g x i in
            let e = G.edge_of_half h in
            let w = G.half_node g (G.mate h) in
            if (not is_bridge.(e)) && cls.(w) = c && dist.(w) < 0
            then begin
              dist.(w) <- d + 1;
              (* w -> x : half at w is the mate of h *)
              orient_half out (G.mate h);
              qbuf2.(!tail) <- w;
              incr tail
            end
          done
        done;
        for k = 0 to nmembers - 1 do
          let x = qbuf.(k) in
          in_x.(x) <- true;
          depth_in_class.(x) <- (if dist.(x) >= 0 then dist.(x) else 0);
          class_charge.(x) <- depth_in_class.(x) + cycle_len
        done
    end
  done;
  (* multi-source BFS from X across all edges: the bridge forest hanging
     off the cyclic region points toward it *)
  let dist_x = Array.make n (-1) in
  let src_x = Array.make n (-1) in
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if in_x.(v) then begin
      dist_x.(v) <- 0;
      src_x.(v) <- v;
      qbuf.(!tail) <- v;
      incr tail
    end
  done;
  while !head < !tail do
    let v = qbuf.(!head) in
    incr head;
    for i = 0 to G.degree g v - 1 do
      let h = G.half_at g v i in
      let w = G.half_node g (G.mate h) in
      if dist_x.(w) < 0 then begin
        dist_x.(w) <- dist_x.(v) + 1;
        src_x.(w) <- src_x.(v);
        (* w -> v *)
        orient_half out (G.mate h);
        qbuf.(!tail) <- w;
        incr tail
      end
    done
  done;
  (* tree components (no node reached from X) *)
  for c = 0 to ncomp - 1 do
    let nodes = comp_nodes.(c) in
    match nodes with
    | [] -> ()
    | first :: _ ->
      if dist_x.(first) < 0 && comp_edges.(c) > 0 then begin
        Obs.Counter.incr m_det_trees;
        let diameter = solve_tree_component g ids out nodes ~seen ~dist ~qbuf in
        List.iter (fun v -> Meter.charge meter v diameter) nodes
      end
  done;
  (* charges for the cyclic region *)
  Pool.parallel_for ~grain:20 ~n (fun v ->
      if dist_x.(v) >= 0 then
        Meter.charge meter v (dist_x.(v) + class_charge.(src_x.(v))));
  (out, meter)

(* ------------------------------------------------------------------ *)
(* Randomized solver                                                  *)
(* ------------------------------------------------------------------ *)

(* random initial orientation: the side-0 node flips a private coin
   indexed by the port the edge occupies at it (per-node randomness is
   seed-indexed, so the flips are schedule-oblivious) *)
let random_orientation g rand (out : output) =
  Pool.parallel_for ~grain:80 ~n:(G.m g) (fun e ->
      let h = 2 * e in
      let node = G.half_node g h in
      let port = G.half_port g h in
      if Randomness.bit rand ~node ~idx:port then begin
        out.b.(h) <- Out;
        out.b.(G.mate h) <- In
      end
      else begin
        out.b.(h) <- In;
        out.b.(G.mate h) <- Out
      end)

let out_degrees g (out : output) =
  let n = G.n g in
  let out_deg = Array.make n 0 in
  Pool.parallel_for ~grain:60 ~n (fun v ->
      out_deg.(v) <-
        G.fold_halves g v ~init:0 ~f:(fun d h ->
            if out.b.(h) = Out then d + 1 else d));
  out_deg

let is_sink g out_deg v = G.degree g v >= 3 && out_deg.(v) = 0

(* sinks in ascending id order: the deterministic repair order *)
let sorted_sinks g ids out_deg =
  List.sort
    (fun a b -> compare ids.(a) ids.(b))
    (List.filter (is_sink g out_deg) (List.init (G.n g) (fun v -> v)))

let set_half g (out : output) out_deg h o =
  let node = G.half_node g h in
  (match (out.b.(h), o) with
  | In, Out -> out_deg.(node) <- out_deg.(node) + 1
  | Out, In -> out_deg.(node) <- out_deg.(node) - 1
  | In, In | Out, Out -> ());
  out.b.(h) <- o

(* sequential repair of one sink: BFS for the nearest node that can
   afford to lose an out-edge, then flip the path toward it and charge
   everyone on it. [dist]/[parent_half]/[qbuf] are solver-wide scratch
   (see solve_randomized): [dist] is -1 outside a search and is restored
   from the queue contents after each one; [parent_half w] = the half at
   w's BFS parent whose mate is at [w] *)
let repair_sink g out out_deg meter ~dist ~parent_half ~qbuf u =
  if is_sink g out_deg u then begin
    dist.(u) <- 0;
    qbuf.(0) <- u;
    let head = ref 0 and tail = ref 1 in
    let target = ref (-1) in
    while !target < 0 && !head < !tail do
      let v = qbuf.(!head) in
      incr head;
      let d = dist.(v) in
      let dv = G.degree g v in
      let i = ref 0 in
      while !target < 0 && !i < dv do
        let h = G.half_at g v !i in
        incr i;
        let w = G.half_node g (G.mate h) in
        if dist.(w) < 0 then begin
          dist.(w) <- d + 1;
          parent_half.(w) <- h;
          (* queued even when it is the target, so the reset sees it *)
          qbuf.(!tail) <- w;
          incr tail;
          if out_deg.(w) >= 2 || G.degree g w <= 2 then target := w
        end
      done
    done;
    (* no target is impossible in any component with a degree-3 sink *)
    if !target >= 0 then begin
      let len = dist.(!target) in
      Obs.Counter.add m_rand_flips len;
      Obs.Histogram.observe m_rand_len len;
      (* walk the path back from the target, pointing it away from u *)
      let v = ref !target in
      while !v <> u do
        let h = parent_half.(!v) in
        set_half g out out_deg h Out;
        set_half g out out_deg (G.mate h) In;
        Meter.charge meter !v (len + 1);
        v := G.half_node g h;
        Meter.charge meter !v (len + 1)
      done
    end;
    for k = 0 to !tail - 1 do
      dist.(qbuf.(k)) <- -1
    done
  end

let solve_randomized inst =
  Obs.Counter.incr m_rand_runs;
  let g = inst.Instance.graph in
  let ids = inst.Instance.ids in
  let rand = inst.Instance.rand in
  let n = G.n g in
  let out = Labeling.const g ~v:() ~e:() ~b:In in
  let meter = Meter.create n in
  random_orientation g rand out;
  Meter.charge_all meter 1;
  let out_deg = out_degrees g out in
  let sinks = sorted_sinks g ids out_deg in
  Obs.Counter.add m_rand_sinks (List.length sinks);
  let dist = Array.make n (-1) in
  let parent_half = Array.make n (-1) in
  let qbuf = Array.make n 0 in
  List.iter (repair_sink g out out_deg meter ~dist ~parent_half ~qbuf) sinks;
  (out, meter)

let solve_randomized_frontier = solve_randomized

let hard_instance rng ~n =
  let n = if n mod 2 = 0 then n else n + 1 in
  Repro_graph.Generators.random_regular rng ~n ~d:3
