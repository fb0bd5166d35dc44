module G = Repro_graph.Multigraph
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool
module Obs = Repro_obs
open Labels

(* per-run verdict tallies, added once after the verdict loop (the
   verdict multiset is pool-size-independent, so the totals are too) *)
let counter = Obs.Registry.counter Obs.Registry.default
let m_runs = counter "gadget.verifier.runs"
let m_err = counter "gadget.verifier.error_nodes"
let m_ok = counter "gadget.verifier.ok_nodes"
let m_ptr = counter "gadget.verifier.pointer_nodes"

let proof_radius ~n =
  let rec log2_ceil x acc = if x <= 1 then acc else log2_ceil ((x + 1) / 2) (acc + 1) in
  (4 * log2_ceil (max n 2) 0) + 8

let is_all_ok out =
  Array.for_all (function Psi.Ok -> true | Psi.Error | Psi.Ptr _ -> false) out

(* Follow [dir] from [v] up to [cap] steps; true iff an err node is hit
   after at least [min_steps] steps. A revisited node means the walk
   looped without finding an error. *)
let walk_err t err v dir ~min_steps ~cap =
  let visited = Hashtbl.create 16 in
  let rec go v steps =
    if steps > cap || Hashtbl.mem visited v then false
    else begin
      Hashtbl.replace visited v ();
      if steps >= min_steps && err.(v) then true
      else
        match follow t v dir with
        | None -> false
        | Some w -> go w (steps + 1)
    end
  in
  go v 0

(* err reachable via dir1^{>=1} followed by Right^* or Left^* *)
let walk_then_sweep t err u dir1 ~cap =
  let visited = Hashtbl.create 16 in
  let rec go v steps =
    if steps > cap || Hashtbl.mem visited v then false
    else begin
      Hashtbl.replace visited v ();
      if
        steps >= 1
        && (err.(v)
           || walk_err t err v Right ~min_steps:1 ~cap
           || walk_err t err v Left ~min_steps:1 ~cap)
      then true
      else
        match follow t v dir1 with
        | None -> false
        | Some w -> go w (steps + 1)
    end
  in
  go u 0

let pointer_for t err u ~cap : Psi.pointer =
  match t.nodes.(u).kind with
  | Center ->
    (* rule 5: smallest Down_i whose sub-gadget shows a pattern error *)
    let down_indices =
      Array.to_list (G.halves t.graph u)
      |> List.filter_map (fun h ->
             match t.halves.(h) with Down i -> Some i | _ -> None)
      |> List.sort_uniq compare
    in
    let matches i =
      match follow t u (Down i) with
      | None -> false
      | Some v ->
        err.(v)
        || walk_err t err v Right ~min_steps:1 ~cap
        || walk_err t err v Left ~min_steps:1 ~cap
        || walk_then_sweep t err v RChild ~cap
    in
    let rec first = function
      | [] -> (
        (* cannot happen on a non-erring center of an invalid component;
           fall back to the smallest sub-gadget *)
        match down_indices with
        | i :: _ -> Psi.PDown i
        | [] -> Psi.PUp)
      | i :: rest -> if matches i then Psi.PDown i else first rest
    in
    first down_indices
  | Index _ ->
    if walk_err t err u Right ~min_steps:1 ~cap then Psi.PRight
    else if walk_err t err u Left ~min_steps:1 ~cap then Psi.PLeft
    else if walk_then_sweep t err u Parent ~cap then Psi.PParent
    else if walk_then_sweep t err u RChild ~cap then Psi.PRChild
    else if has_half t u Parent then Psi.PParent
    else Psi.PUp

(* BFS over the CSR arrays from the [k] sources already in [q.(0..k-1)]
   (their [dist] set); [dist] is [-1] on unvisited nodes. Returns the
   tail: [q.(0..tail-1)] lists every node reached, in BFS order. *)
let bfs_fill off prt hn dist q k =
  let head = ref 0 and tail = ref k in
  while !head < !tail do
    let v = q.(!head) in
    incr head;
    let dv = dist.(v) + 1 in
    for i = off.(v) to off.(v + 1) - 1 do
      let w = hn.(prt.(i) lxor 1) in
      if dist.(w) < 0 then begin
        dist.(w) <- dv;
        q.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

(* the farthest of the [len] nodes in [q] from the sweep's source [s],
   ties to the smallest id *)
let farthest dist q len s =
  let best = ref s in
  for k = 0 to len - 1 do
    let v = q.(k) in
    if dist.(v) > dist.(!best) || (dist.(v) = dist.(!best) && v < !best) then
      best := v
  done;
  !best

(* a single-source BFS from [s] on the scratch; the scratch's [dist] is
   [-1] on entry and left holding the distances of the [len] nodes of
   [s]'s component, which [q.(0..len-1)] lists *)
let sweep off prt hn dist q s =
  dist.(s) <- 0;
  q.(0) <- s;
  bfs_fill off prt hn dist q 1

let clear dist q len =
  for k = 0 to len - 1 do
    dist.(q.(k)) <- -1
  done

let run ~delta ~n (t : Labels.t) =
  Obs.Counter.incr m_runs;
  let g = t.graph in
  let size = G.n g in
  let off = G.ports_off g and prt = G.ports_flat g in
  let hn = G.half_node_flat g in
  let radius = proof_radius ~n in
  let err = Check.erring_nodes ~delta t in
  let out = Array.make size Psi.Ok in
  let meter = Meter.create size in
  (* one BFS queue for every traversal below, and one distance array
     that each sweep leaves at -1 again *)
  let q = Array.make size 0 in
  let dist = Array.make size (-1) in
  (* distance to the nearest erring node (-1: none) *)
  let dist_err = Array.make size (-1) in
  let k = ref 0 in
  for v = 0 to size - 1 do
    if err.(v) then begin
      dist_err.(v) <- 0;
      q.(!k) <- v;
      incr k
    end
  done;
  ignore (bfs_fill off prt hn dist_err q !k);
  (* eccentricity estimate per component by double sweep, restricted to
     the component's members: a node is the first of its component iff
     no earlier sweep reached it *)
  let ecc_est = Array.make size (-1) in
  for s = 0 to size - 1 do
    if ecc_est.(s) < 0 then begin
      let len = sweep off prt hn dist q s in
      let a = farthest dist q len s in
      clear dist q len;
      ignore (sweep off prt hn dist q a);
      let b = farthest dist q len a in
      for k = 0 to len - 1 do
        let v = q.(k) in
        ecc_est.(v) <- dist.(v)
      done;
      clear dist q len;
      ignore (sweep off prt hn dist q b);
      for k = 0 to len - 1 do
        let v = q.(k) in
        if dist.(v) > ecc_est.(v) then ecc_est.(v) <- dist.(v)
      done;
      clear dist q len
    end
  done;
  let cap = size in
  (* the per-node verdicts are independent: pointer_for only reads the
     labelled gadget and the precomputed err/dist tables, and each node
     writes its own output and meter slot — the verifier's hot loop *)
  (* one index = a radius-ball pointer check: by far the heaviest
     per-index body in the repo (see EXPERIMENTS.md W-dispatch) *)
  Pool.parallel_for ~grain:2_500 ~n:size (fun u ->
      if err.(u) then begin
        out.(u) <- Psi.Error;
        Meter.charge meter u 2
      end
      else begin
        if dist_err.(u) >= 0 && dist_err.(u) <= radius then
          out.(u) <- Psi.Ptr (pointer_for t err u ~cap);
        Meter.charge meter u (min radius ecc_est.(u))
      end);
  (* the verdict tallies, added to the counters once *)
  let n_err = ref 0 and n_ptr = ref 0 in
  Array.iter
    (function
      | Psi.Error -> incr n_err | Psi.Ptr _ -> incr n_ptr | Psi.Ok -> ())
    out;
  Obs.Counter.add m_err !n_err;
  Obs.Counter.add m_ptr !n_ptr;
  Obs.Counter.add m_ok (size - !n_err - !n_ptr);
  (out, meter)

(* run the prover, then certify its declared per-node radii as an actual
   engine flood on the gadget graph (see Repro_local.Audit) *)
let audited_run ~delta ~n t =
  let out, meter = run ~delta ~n t in
  let inst = Repro_local.Instance.create t.graph in
  let cert =
    Repro_local.Audit.run_flood ~label:"gadget.verifier" inst
      ~declared:(Meter.declared meter)
  in
  (out, meter, cert)
