module G = Repro_graph.Multigraph
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool
module Obs = Repro_obs

type output = (int, unit, unit) Labeling.t

let problem ~delta : (unit, unit, unit, int, unit, unit) Ne_lcl.t =
  {
    name = Printf.sprintf "(%d+1)-coloring" delta;
    check_node =
      (fun nv -> Ne_lcl.v_out nv >= 0 && Ne_lcl.v_out nv <= delta);
    check_edge =
      (fun ev ->
        (not (Ne_lcl.self_loop ev)) && Ne_lcl.u_out ev <> Ne_lcl.w_out ev);
  }

let is_valid g (output : output) =
  let input = Labeling.const g ~v:() ~e:() ~b:() in
  Ne_lcl.is_valid (problem ~delta:(G.max_degree g)) g ~input ~output

let rec log_star_aux x acc = if x <= 1 then acc else log_star_aux (int_of_float (ceil (log (float_of_int x) /. log 2.))) (acc + 1)
let rounds_lower_estimate n = log_star_aux n 0

(* lowest bit position where a and b differ; a <> b required *)
let lowest_diff_bit a b =
  let x = a lxor b in
  let rec go i = if x land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

(* the per-class segment loop over the big-color nodes, sorted by
   (color descending, node ascending): [f base len] once per class *)
let iter_segments color big nbig f =
  let i = ref 0 in
  while !i < nbig do
    let cls = color.(big.(!i)) in
    let j = ref !i in
    while !j < nbig && color.(big.(!j)) = cls do
      incr j
    done;
    f !i (!j - !i);
    i := !j
  done

let counter = Obs.Registry.counter Obs.Registry.default
let m_runs = counter "problems.coloring.runs"
let m_cv_rounds = counter "problems.coloring.cv_rounds"
let m_rounds = counter "problems.coloring.rounds"

let solve inst =
  Obs.Counter.incr m_runs;
  let g = inst.Instance.graph in
  let ids = inst.Instance.ids in
  let n = G.n g in
  for v = 0 to n - 1 do
    if G.has_self_loop g v then
      invalid_arg "Coloring.solve: graph has a self-loop"
  done;
  let meter = Meter.create n in
  let rounds = ref 1 (* orientation by id comparison *) in
  let delta = max 1 (G.max_degree g) in
  (* out-edges of v: halves whose far endpoint has a larger id;
     forest index of such a half = its rank among v's out-halves *)
  let out_halves =
    Pool.tabulate ~grain:250 n (fun v ->
        Array.of_list
          (List.rev
             (G.fold_halves g v ~init:[] ~f:(fun acc h ->
                  if ids.(G.half_node g (G.mate h)) > ids.(v) then h :: acc
                  else acc))))
  in
  (* parent.(i).(v) = parent of v in forest i, or -1 *)
  let parent =
    Array.init delta (fun i ->
        Pool.tabulate ~grain:30 n (fun v ->
            if i < Array.length out_halves.(v) then
              G.half_node g (G.mate out_halves.(v).(i))
            else -1))
  in
  let children =
    Array.init delta (fun i ->
        let c = Array.make n [] in
        for v = 0 to n - 1 do
          let p = parent.(i).(v) in
          if p >= 0 then c.(p) <- v :: c.(p)
        done;
        c)
  in
  (* 3-color each forest; the forests run in parallel in the LOCAL model,
     so the round count is the maximum over forests, not the sum *)
  let forest_color = Array.make delta [||] in
  let max_forest_rounds = ref 0 in
  for i = 0 to delta - 1 do
    let forest_rounds = ref 0 in
    let color = Array.copy ids in
    (* Cole-Vishkin iterations until at most 6 colors *)
    let continue = ref true in
    while !continue do
      let mx = Array.fold_left max 0 color in
      if mx < 6 then continue := false
      else begin
        let next =
          Pool.tabulate ~grain:60 n (fun v ->
              let p = parent.(i).(v) in
              if p < 0 then
                (* roots: pretend a parent colored differently *)
                let fake = if color.(v) = 0 then 1 else 0 in
                let b = lowest_diff_bit color.(v) fake in
                (2 * b) + ((color.(v) lsr b) land 1)
              else
                let b = lowest_diff_bit color.(v) color.(p) in
                (2 * b) + ((color.(v) lsr b) land 1))
        in
        Array.blit next 0 color 0 n;
        incr forest_rounds
      end
    done;
    (* shrink 6 -> 3 by shift-down + recolor of classes 5, 4, 3 *)
    for x = 5 downto 3 do
      (* shift down: non-roots adopt parent's color; roots pick a fresh
         color in {0,1,2} different from their own old color (their
         children now all wear that old color) *)
      let shifted =
        Pool.tabulate ~grain:20 n (fun v ->
            let p = parent.(i).(v) in
            if p >= 0 then color.(p)
            else if color.(v) = 0 then 1
            else 0)
      in
      Array.blit shifted 0 color 0 n;
      incr forest_rounds;
      (* recolor class x: avoid parent's color and the (single) color all
         children share after the shift *)
      let next =
        Pool.tabulate ~grain:30 n (fun v ->
            if color.(v) <> x then color.(v)
            else begin
              let avoid1 =
                let p = parent.(i).(v) in
                if p >= 0 then color.(p) else -1
              in
              let avoid2 =
                match children.(i).(v) with c :: _ -> color.(c) | [] -> -1
              in
              let rec pick c =
                if c <> avoid1 && c <> avoid2 then c else pick (c + 1)
              in
              pick 0
            end)
      in
      Array.blit next 0 color 0 n;
      incr forest_rounds
    done;
    forest_color.(i) <- color;
    if !forest_rounds > !max_forest_rounds then max_forest_rounds := !forest_rounds
  done;
  rounds := !rounds + !max_forest_rounds;
  (* combine: base-3 digits over forests, then greedy reduction *)
  let pow3 = Array.make (delta + 1) 1 in
  for i = 1 to delta do
    pow3.(i) <- 3 * pow3.(i - 1)
  done;
  let color =
    Pool.tabulate ~grain:40 n (fun v ->
        let c = ref 0 in
        for i = 0 to delta - 1 do
          c := !c + (forest_color.(i).(v) * pow3.(i))
        done;
        !c)
  in
  (* sanity: combined coloring is proper because every edge is in some
     forest, where its two endpoints got different 3-colors *)
  (* Greedy reduction, frontier-shaped: only the nodes wearing a big
     color (> delta) are ever touched, so instead of one O(n) sweep per
     class — O(3^Δ · n) total — sort those nodes once by (color
     descending, node ascending) and recolor each class segment in
     place. Two nodes of one class are never adjacent (the combined
     coloring is proper), so the in-place writes are never read within
     the segment's parallel step — identical semantics to the per-class
     snapshot-and-blit, at O(n log n + m) total. The round count keeps
     the full ladder 3^Δ - 1 … Δ+1: in the LOCAL model the empty
     classes still burn their round. *)
  let nbig = ref 0 in
  for v = 0 to n - 1 do
    if color.(v) > delta then incr nbig
  done;
  let nbig = !nbig in
  let big = Array.make (max 1 nbig) 0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if color.(v) > delta then begin
      big.(!k) <- v;
      incr k
    end
  done;
  Array.sort
    (fun a b ->
      if color.(a) <> color.(b) then compare color.(b) color.(a)
      else compare a b)
    big;
  iter_segments color big nbig (fun base len ->
      Pool.parallel_for ~grain:200 ~n:len (fun k ->
          let v = big.(base + k) in
          let used = Array.make (delta + 1) false in
          List.iter
            (fun w -> if color.(w) <= delta then used.(color.(w)) <- true)
            (G.neighbors g v);
          let rec pick c = if used.(c) then pick (c + 1) else c in
          color.(v) <- pick 0));
  rounds := !rounds + (pow3.(delta) - delta - 1);
  Obs.Counter.add m_cv_rounds !max_forest_rounds;
  Obs.Counter.add m_rounds !rounds;
  Meter.charge_all meter !rounds;
  let out = Labeling.init g ~v:(fun v -> color.(v)) ~e:(fun _ -> ()) ~b:(fun _ -> ()) in
  (out, meter)
