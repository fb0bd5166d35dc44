module G = Repro_graph.Multigraph
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Pool = Repro_local.Pool
module Randomness = Repro_local.Randomness
module Obs = Repro_obs

type output = Mis.output

let is_valid = Mis.is_valid

(* Priorities must be pairwise distinct or adjacent ties could recur
   forever; 40 fresh random bits per node per iteration, with the node
   index in the low 22 bits as an injective tie-break (enough for every
   instance we build, and checked). Inactive nodes carry [min_int] so
   they lose every contest. *)
let max_nodes = 1 lsl 22

let draw rand ~iter ~n active p =
  Pool.parallel_for ~grain:60 ~n (fun v ->
      p.(v) <-
        (if active.(v) then
           (Int64.to_int (Randomness.bits64 rand ~node:v ~idx:iter)
            land 0xff_ffff_ffff)
           lsl 22
           lor v
         else min_int))

let counter = Obs.Registry.counter Obs.Registry.default
let m_runs = counter "problems.luby.runs"
let m_iterations = counter "problems.luby.iterations"
let m_members = counter "problems.luby.members"

let solve inst =
  Obs.Counter.incr m_runs;
  let g = inst.Instance.graph in
  let n = G.n g in
  if n > max_nodes then invalid_arg "Luby.solve: more than 2^22 nodes";
  for v = 0 to n - 1 do
    if G.has_self_loop g v then invalid_arg "Luby.solve: graph has a self-loop"
  done;
  let rand = inst.Instance.rand in
  let meter = Meter.create n in
  let off = G.ports_off g and prt = G.ports_flat g in
  let hn = G.half_node_flat g in
  let active = Array.make n true in
  let members = Array.make n false in
  let p = Array.make n min_int in
  let nmax = Array.make n min_int in
  let nmem = Array.make n false in
  let count_active () =
    Pool.parallel_sum ~grain:5 ~n (fun lo hi ->
        let c = ref 0 in
        for v = lo to hi - 1 do
          if active.(v) then incr c
        done;
        !c)
  in
  let remaining = ref (count_active ()) in
  let iter = ref 0 in
  while !remaining > 0 do
    draw rand ~iter:!iter ~n active p;
    (* priority contest: nmax.(v) = max neighbour priority *)
    Pool.parallel_for ~grain:100 ~n (fun v ->
        if active.(v) then begin
          let best = ref min_int in
          for i = off.(v) to off.(v + 1) - 1 do
            let q = p.(hn.(prt.(i) lxor 1)) in
            if q > !best then best := q
          done;
          nmax.(v) <- !best
        end);
    Pool.parallel_for ~grain:10 ~n (fun v ->
        if active.(v) && p.(v) > nmax.(v) then members.(v) <- true);
    (* blocking: nmem.(v) = some neighbour is a member *)
    Pool.parallel_for ~grain:100 ~n (fun v ->
        if active.(v) then begin
          let any = ref false in
          for i = off.(v) to off.(v + 1) - 1 do
            if members.(hn.(prt.(i) lxor 1)) then any := true
          done;
          nmem.(v) <- !any
        end);
    Pool.parallel_for ~grain:10 ~n (fun v ->
        if active.(v) && (members.(v) || nmem.(v)) then active.(v) <- false);
    remaining := count_active ();
    incr iter
  done;
  Obs.Counter.add m_iterations !iter;
  if Obs.Registry.enabled () then
    Obs.Counter.add m_members
      (Array.fold_left (fun a b -> if b then a + 1 else a) 0 members);
  (* two LOCAL rounds per iteration: the priority exchange and the
     membership exchange *)
  Meter.charge_all meter (2 * !iter);
  (Mis.of_members g members, meter)
