module G = Repro_graph.Multigraph
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool
module Obs = Repro_obs

type half_out = { mine : bool; claim : bool }
type output = (bool, unit, half_out) Labeling.t

(* every half from port [i] on repeats the node's membership [v] / some
   half from [i] on claims a member neighbor. Top-level recursions, not
   [Array.for_all]/[Array.exists], which build a closure per call: the
   node check runs once per node per check. *)
let rec all_mine nv v i =
  i >= Ne_lcl.degree nv
  || ((Ne_lcl.b_out nv i).mine = v && all_mine nv v (i + 1))

let rec some_claim nv i =
  i < Ne_lcl.degree nv && ((Ne_lcl.b_out nv i).claim || some_claim nv (i + 1))

let problem : (unit, unit, unit, bool, unit, half_out) Ne_lcl.t =
  {
    name = "maximal-independent-set";
    check_node =
      (fun nv ->
        let v = Ne_lcl.v_out nv in
        all_mine nv v 0 && (v || some_claim nv 0));
    check_edge =
      (fun ev ->
        let u = Ne_lcl.u_out ev and w = Ne_lcl.w_out ev in
        let bu = Ne_lcl.bu_out ev and bw = Ne_lcl.bw_out ev in
        bu.mine = u && bw.mine = w && bu.claim = w && bw.claim = u
        && not (u && w));
  }

let of_members g members =
  Labeling.init g
    ~v:(fun v -> members.(v))
    ~e:(fun _ -> ())
    ~b:(fun h ->
      let v = G.half_node g h in
      let w = G.half_node g (G.mate h) in
      { mine = members.(v); claim = members.(w) })

let is_valid g output =
  let input = Labeling.const g ~v:() ~e:() ~b:() in
  Ne_lcl.is_valid problem g ~input ~output

(* counting sort of the nodes into color-class buckets: class [c]'s
   members are [bucket.(off.(c)) .. bucket.(off.(c+1) - 1)], ascending *)
let class_buckets coloring ~n ~delta =
  let cnt = Array.make (delta + 1) 0 in
  for v = 0 to n - 1 do
    let c = coloring.Labeling.v.(v) in
    cnt.(c) <- cnt.(c) + 1
  done;
  let off = Array.make (delta + 2) 0 in
  for c = 0 to delta do
    off.(c + 1) <- off.(c) + cnt.(c)
  done;
  let cursor = Array.sub off 0 (delta + 1) in
  let bucket = Array.make (max 1 n) 0 in
  for v = 0 to n - 1 do
    let c = coloring.Labeling.v.(v) in
    bucket.(cursor.(c)) <- v;
    cursor.(c) <- cursor.(c) + 1
  done;
  (off, bucket)

let counter = Obs.Registry.counter Obs.Registry.default
let m_runs = counter "problems.mis.runs"
let m_members = counter "problems.mis.members"

let solve inst =
  Obs.Counter.incr m_runs;
  let g = inst.Instance.graph in
  let n = G.n g in
  let coloring, meter = Coloring.solve inst in
  let delta = max 1 (G.max_degree g) in
  let members = Array.make n false in
  let blocked = Array.make n false in
  (* One parallel step per color class: two nodes of the same class are
     never adjacent (the coloring is proper), so within a class no node's
     [blocked] flag is read while it is written — a class member's flag
     could only be set by an adjacent member of the same class. Writes to
     a shared non-member neighbour all store [true] (idempotent), so any
     pool size produces the same set. The classes are bucketed up front
     (counting sort by color) so each step visits only the class's
     members — O(n + m) total instead of O(Δ · n). *)
  let off, bucket = class_buckets coloring ~n ~delta in
  for cls = 0 to delta do
    let base = off.(cls) in
    Pool.parallel_for ~grain:80 ~n:(off.(cls + 1) - base) (fun k ->
        let v = bucket.(base + k) in
        if not blocked.(v) then begin
          members.(v) <- true;
          List.iter (fun w -> blocked.(w) <- true) (G.neighbors g v)
        end)
  done;
  if Obs.Registry.enabled () then
    Obs.Counter.add m_members
      (Array.fold_left (fun a b -> if b then a + 1 else a) 0 members);
  Meter.charge_all meter (Meter.max_radius meter + delta + 1);
  (of_members g members, meter)
