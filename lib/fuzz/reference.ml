module G = Repro_graph.Multigraph
module Instance = Repro_local.Instance
module MP = Repro_local.Message_passing
module Pool = Repro_local.Pool
module B = Repro_obs.Provenance.Bitset
module Ball = Repro_local.Ball
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl

type 'out result = {
  outputs : 'out array;
  rounds : int array;
  max_rounds : int;
}

(* Both phases write only index-owned slots (send: the mates of the
   sender's own halves; receive: the node's own state), so running them
   as pool loops keeps the oracle deterministic at every pool size. *)
let run_boxed ?limit inst (alg : _ MP.algorithm) =
  let g = inst.Instance.graph in
  let n = G.n g in
  let limit = match limit with Some l -> l | None -> (4 * n) + 16 in
  let states = Array.init n (fun v -> alg.MP.init inst v) in
  let outputs = Array.make n None in
  let rounds = Array.make n 0 in
  let halted = Array.make n false in
  let remaining = ref n in
  let mail = Array.make (2 * G.m g) None in
  let audit = Repro_obs.Provenance.active () in
  let inf_state =
    if audit then
      Array.init n (fun v ->
          let b = B.create n in
          B.add b v;
          b)
    else [||]
  in
  let inf_mail =
    if audit then Array.init (2 * G.m g) (fun _ -> B.create n) else [||]
  in
  let round = ref 0 in
  while !remaining > 0 && !round < limit do
    let r = !round in
    Pool.parallel_for ~n (fun v ->
        if not halted.(v) then
          Array.iteri
            (fun p h ->
              mail.(G.mate h) <- Some (alg.MP.send states.(v) ~round:r ~port:p);
              if audit then B.blit ~src:inf_state.(v) ~dst:inf_mail.(G.mate h))
            (G.halves g v));
    let newly_halted =
      Pool.parallel_sum ~n (fun lo hi ->
          let c = ref 0 in
          for v = lo to hi - 1 do
            if not halted.(v) then begin
              let halves = G.halves g v in
              if audit then
                Array.iter
                  (fun h -> B.union_into ~into:inf_state.(v) inf_mail.(h))
                  halves;
              let msgs = Array.map (fun h -> Option.get mail.(h)) halves in
              match alg.MP.receive states.(v) ~round:r msgs with
              | Either.Left st -> states.(v) <- st
              | Either.Right out ->
                outputs.(v) <- Some out;
                halted.(v) <- true;
                rounds.(v) <- r + 1;
                incr c
            end
          done;
          !c)
    in
    remaining := !remaining - newly_halted;
    incr round
  done;
  if !remaining > 0 then
    failwith
      (Printf.sprintf "Reference.run_boxed: %d nodes still running after %d rounds"
         !remaining limit);
  if audit then
    Repro_obs.Provenance.submit
      {
        Repro_obs.Provenance.engine = "boxed";
        n;
        influence = inf_state;
        rounds_active = Array.copy rounds;
      };
  {
    outputs = Array.map Option.get outputs;
    rounds;
    max_rounds = Array.fold_left max 0 rounds;
  }

(* Everything about [v]'s neighbourhood is read off its radius-1 ball:
   the ports of [v] are the ports of the ball's center, and the ball's
   local edge [k] is the [k]-th global edge (ascending id) with both
   endpoints inside the ball, its halves in the same order. The global
   graph is only read to list those edge ids. *)
let node_verdicts (p : _ Ne_lcl.t) g ~(input : _ Labeling.t)
    ~(output : _ Labeling.t) =
  Array.init (G.n g) (fun v ->
      let ball = Ball.gather g ~center:v ~radius:1 in
      let sub = ball.Ball.graph in
      let edge_ids =
        Array.of_list
          (List.rev
             (G.fold_edges g ~init:[] ~f:(fun acc e a b ->
                  if Ball.mem_global ball a && Ball.mem_global ball b then
                    e :: acc
                  else acc)))
      in
      let global h = (2 * edge_ids.(G.edge_of_half h)) + (h land 1) in
      let node h = ball.Ball.to_global.(G.half_node sub h) in
      let halves = G.halves sub ball.Ball.center in
      let ports = Array.map global halves in
      let node_ok =
        p.Ne_lcl.check_node
          {
            Ne_lcl.vi = input.Labeling.v;
            vo = output.Labeling.v;
            ei = input.Labeling.e;
            eo = output.Labeling.e;
            bi = input.Labeling.b;
            bo = output.Labeling.b;
            ports;
            node = v;
            lo = 0;
            degree = Array.length ports;
            edge_shift = 1;
          }
      in
      (* C_E of the edge behind local half [h], seen from v's side *)
      let edge_ok h =
        let hu = global h and hw = global (G.mate h) in
        let w = node (G.mate h) in
        p.Ne_lcl.check_edge
          {
            Ne_lcl.uvi = input.Labeling.v;
            uvo = output.Labeling.v;
            wvi = input.Labeling.v;
            wvo = output.Labeling.v;
            eei = input.Labeling.e;
            eeo = output.Labeling.e;
            ubi = input.Labeling.b;
            ubo = output.Labeling.b;
            wbi = input.Labeling.b;
            wbo = output.Labeling.b;
            u = v;
            w;
            edge = hu / 2;
            hu;
            hw;
            loop = w = v;
          }
      in
      node_ok && Array.for_all edge_ok halves)
