(* Tests for the padding construction (§3): padded graphs, the Π'
   constraints, the Lemma-4 solver on clean and adversarial instances, the
   Π^i hierarchy, and the Lemma-5 balance. *)

module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Gen = Repro_graph.Generators
module Labeling = Repro_lcl.Labeling
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module GL = Repro_gadget.Labels
module GB = Repro_gadget.Build
module Spec = Repro_padding.Spec
module PG = Repro_padding.Padded_graph
module PT = Repro_padding.Padded_types
module Pi = Repro_padding.Pi_prime
module H = Repro_padding.Hierarchy
module Adv = Repro_padding.Adversary

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let so = H.sinkless_orientation
let so' = Pi.pad so
let delta = Pi.delta_of so

(* ------------------------------------------------------------------ *)
(* padded graphs *)

let test_padded_sizes () =
  let base = Gen.cycle 4 in
  let gadget = GB.gadget ~delta:3 ~height:3 in
  let pg = PG.build base ~delta:3 ~gadget_for:(fun _ -> gadget) in
  check_int "n" (4 * 22) (G.n pg.PG.padded);
  check_int "m" ((4 * G.m gadget.GL.graph) + 4) (G.m pg.PG.padded);
  (* every base edge became a port edge *)
  Array.iter
    (fun pe -> check "port edge marked" true pg.PG.edge_is_port.(pe))
    pg.PG.port_edge_of

let test_padded_port_wiring () =
  let base = G.of_edges ~n:2 [ (0, 1) ] in
  let gadget = GB.gadget ~delta:3 ~height:3 in
  let pg = PG.build base ~delta:3 ~gadget_for:(fun _ -> gadget) in
  (* base edge uses port 0 of both, so Port_1 of gadget 0 connects to
     Port_1 of gadget 1 *)
  let pe = pg.PG.port_edge_of.(0) in
  let u, v = G.endpoints pg.PG.padded pe in
  check_int "u is port1 of 0" (PG.port_node pg 0 1) u;
  check_int "v is port1 of 1" (PG.port_node pg 1 1) v

let test_padded_self_loop_base () =
  (* a base self-loop connects two different ports of the same gadget *)
  let base = G.of_edges ~n:1 [ (0, 0) ] in
  let gadget = GB.gadget ~delta:3 ~height:3 in
  let pg = PG.build base ~delta:3 ~gadget_for:(fun _ -> gadget) in
  let pe = pg.PG.port_edge_of.(0) in
  let u, v = G.endpoints pg.PG.padded pe in
  check "distinct port nodes" true (u <> v);
  check_int "same gadget" pg.PG.base_node_of.(u) pg.PG.base_node_of.(v)

let test_padded_rejects_high_degree () =
  let base = Gen.star 6 in
  (* center degree 5 > delta 3 *)
  let gadget = GB.gadget ~delta:3 ~height:3 in
  check "raises" true
    (try
       ignore (PG.build base ~delta:3 ~gadget_for:(fun _ -> gadget));
       false
     with Invalid_argument _ -> true)

let test_padded_distances_stretch () =
  let base = Gen.cycle 6 in
  let gadget = GB.gadget ~delta:3 ~height:5 in
  let pg = PG.build base ~delta:3 ~gadget_for:(fun _ -> gadget) in
  let mean, mx = PG.stretch_stats pg in
  check "stretch positive" true (mean > 2.0);
  check "max at least mean" true (mx >= mean);
  (* padded distance between far gadgets is at least the base distance *)
  let d =
    T.distance pg.PG.padded (PG.port_node pg 0 1) (PG.port_node pg 3 1)
  in
  check "padded dist exceeds base dist" true (d >= 3)

let test_input_labeling_structure () =
  let base = Gen.cycle 3 in
  let base_input = Labeling.const base ~v:() ~e:() ~b:() in
  let gadget = GB.gadget ~delta:3 ~height:3 in
  let pg = PG.build base ~delta:3 ~gadget_for:(fun _ -> gadget) in
  let inp = PG.input_labeling pg ~base_input ~dei:() ~dbi:() in
  (* edge types match edge_is_port *)
  G.iter_edges pg.PG.padded ~f:(fun e _ _ ->
      let et = (inp.Labeling.e.(e) : _ PT.pe_in).PT.etype in
      check "etype" true ((et = PT.PortEdge) = pg.PG.edge_is_port.(e)));
  (* gadget labels present on gadget halves *)
  let h = 0 in
  check "gad half label" true
    ((inp.Labeling.b.(h) : _ PT.pb_in).PT.gad_b.Repro_gadget.Ne_psi.bl
    = gadget.GL.halves.(pg.PG.half_gad.(h)))

(* ------------------------------------------------------------------ *)
(* Π' solver on clean instances *)

let solve_clean ~seed ~base_n ~gadget_target which =
  let rng = Random.State.make [| seed |] in
  let pg, inp =
    Pi.hard_instance_parts so rng ~base_target:base_n ~gadget_target
  in
  let g = pg.PG.padded in
  let inst = Instance.create ~seed g in
  let solve = match which with `Det -> so'.Spec.solve_det | `Rand -> so'.Spec.solve_rand in
  let out, m = solve inst inp in
  (g, inp, out, m)

let test_pi_prime_det_valid () =
  let g, inp, out, _ = solve_clean ~seed:1 ~base_n:20 ~gadget_target:30 `Det in
  check "valid" true (Spec.is_valid so' g ~input:inp ~output:out)

let test_pi_prime_rand_valid () =
  let g, inp, out, _ = solve_clean ~seed:2 ~base_n:20 ~gadget_target:30 `Rand in
  check "valid" true (Spec.is_valid so' g ~input:inp ~output:out)

let test_pi_prime_all_ports_valid () =
  let _, _, out, _ = solve_clean ~seed:3 ~base_n:10 ~gadget_target:25 `Det in
  Array.iter
    (fun (o : _ PT.pv_out) ->
      check "no port errors on clean instance" true (o.PT.perr <> PT.PortErr1))
    out.Labeling.v

let test_pi_prime_sigma_consistent () =
  let g, inp, out, _ = solve_clean ~seed:4 ~base_n:10 ~gadget_target:25 `Det in
  (* Σ_list is shared within each gadget: endpoints of gadget edges agree *)
  G.iter_edges g ~f:(fun e u v ->
      if (inp.Labeling.e.(e) : _ PT.pe_in).PT.etype = PT.GadEdge then
        check "sigma shared" true
          ((out.Labeling.v.(u) : _ PT.pv_out).PT.list_part
          == (out.Labeling.v.(v) : _ PT.pv_out).PT.list_part))

let test_pi_prime_overhead_charged () =
  (* deeper gadgets must cost more rounds for the same base *)
  let _, _, _, m_small = solve_clean ~seed:5 ~base_n:30 ~gadget_target:10 `Det in
  let _, _, _, m_large = solve_clean ~seed:5 ~base_n:30 ~gadget_target:400 `Det in
  check "overhead grows with gadget depth" true
    (Meter.max_radius m_large > Meter.max_radius m_small)

let test_pi_prime_checker_rejects_corrupted_output () =
  let g, inp, out, _ = solve_clean ~seed:6 ~base_n:10 ~gadget_target:25 `Det in
  (* flip one port's NoPortErr to PortErr1: violates constraint 4 *)
  let flipped = ref false in
  Array.iteri
    (fun v (o : _ PT.pv_out) ->
      if (not !flipped)
         && (inp.Labeling.v.(v) : _ PT.pv_in).PT.gad_v.GL.port <> None
      then begin
        out.Labeling.v.(v) <- { o with PT.perr = PT.PortErr1 };
        flipped := true
      end)
    out.Labeling.v;
  check "flipped" true !flipped;
  check "rejected" false (Spec.is_valid so' g ~input:inp ~output:out)

let test_pi_prime_checker_rejects_bad_sigma () =
  let g, inp, out, _ = solve_clean ~seed:7 ~base_n:10 ~gadget_target:25 `Det in
  (* break the virtual solution: flip one ob entry of one gadget's sigma *)
  let o : _ PT.pv_out = out.Labeling.v.(1) in
  let l = o.PT.list_part in
  let swapped =
    Array.map
      (function Repro_problems.Sinkless_orientation.Out -> Repro_problems.Sinkless_orientation.In | Repro_problems.Sinkless_orientation.In -> Repro_problems.Sinkless_orientation.Out)
      l.PT.ob
  in
  let l' = { l with PT.ob = swapped } in
  (* write it to all nodes of gadget 0 so the GadEdge-agreement holds and
     only the virtual-edge constraint can catch it *)
  Array.iteri
    (fun v (ov : _ PT.pv_out) ->
      if v < 46 (* gadget of base node 0 for height chosen *) then
        out.Labeling.v.(v) <- { ov with PT.list_part = l' })
    out.Labeling.v;
  check "rejected" false (Spec.is_valid so' g ~input:inp ~output:out)

(* ------------------------------------------------------------------ *)
(* adversarial instances *)

let test_adversarial_corruption_solved () =
  let rng = Random.State.make [| 71 |] in
  List.iter
    (fun corrupt ->
      let pg, inp, mask =
        Adv.padded_with_corruption so rng ~base_target:20 ~gadget_target:30
          ~corrupt
      in
      let g = pg.PG.padded in
      let inst = Instance.create ~seed:corrupt g in
      let out, _ = so'.Spec.solve_det inst inp in
      check
        (Printf.sprintf "det valid with %d corrupted" corrupt)
        true
        (Spec.is_valid so' g ~input:inp ~output:out);
      let out_r, _ = so'.Spec.solve_rand inst inp in
      check
        (Printf.sprintf "rand valid with %d corrupted" corrupt)
        true
        (Spec.is_valid so' g ~input:inp ~output:out_r);
      (* ports facing corrupted gadgets carry PortErr1 *)
      let base = pg.PG.base in
      G.iter_edges base ~f:(fun e bu bv ->
          if mask.(bv) && not mask.(bu) then begin
            let pe = pg.PG.port_edge_of.(e) in
            let pu, _ = G.endpoints g pe in
            let o : _ PT.pv_out = out.Labeling.v.(pu) in
            check "port facing corruption errs" true (o.PT.perr = PT.PortErr1)
          end))
    [ 1; 4 ]

let test_fully_corrupted_instance () =
  (* every gadget corrupted: nothing to solve, but the output must still
     be accepted (all-error is a valid Π' solution) *)
  let rng = Random.State.make [| 72 |] in
  let pg, inp, _ =
    Adv.padded_with_corruption so rng ~base_target:8 ~gadget_target:25
      ~corrupt:1000
  in
  let g = pg.PG.padded in
  let inst = Instance.create g in
  let out, _ = so'.Spec.solve_det inst inp in
  check "valid" true (Spec.is_valid so' g ~input:inp ~output:out)

let test_garbage_input () =
  (* a graph that is not a padded graph at all: everything is one giant
     invalid gadget *)
  let rng = Random.State.make [| 73 |] in
  let g = Gen.random_regular rng ~n:60 ~d:3 in
  let inp =
    Labeling.init g
      ~v:(fun _ ->
        {
          PT.pi_v = ();
          gad_v = { GL.kind = GL.Index 1; port = None; color2 = 0 };
        })
      ~e:(fun _ -> { PT.pi_e = (); etype = PT.GadEdge })
      ~b:(fun _ ->
        {
          PT.pi_b = ();
          gad_b =
            {
              Repro_gadget.Ne_psi.bl = GL.Parent;
              bcolor = 0;
              bflags = { GL.f_right = false; f_left = false; f_child = false };
            };
        })
  in
  let inst = Instance.create g in
  let out, _ = so'.Spec.solve_det inst inp in
  check "garbage handled" true (Spec.is_valid so' g ~input:inp ~output:out)

let test_isolated_nodes_instance () =
  (* Lemma 5 pads instances with isolated nodes; each is an invalid
     single-node gadget *)
  let rng = Random.State.make [| 74 |] in
  let pg, inp =
    Pi.hard_instance_parts so rng ~base_target:8 ~gadget_target:20
  in
  let g0 = pg.PG.padded in
  let extra = 10 in
  let b = G.Builder.create (G.n g0 + extra) in
  G.iter_edges g0 ~f:(fun _ u v -> ignore (G.Builder.add_edge b u v));
  let g = G.Builder.build b in
  let dvi = so'.Spec.dvi and dbi = so'.Spec.dbi in
  let inp' =
    Labeling.init g
      ~v:(fun v -> if v < G.n g0 then inp.Labeling.v.(v) else dvi)
      ~e:(fun e -> inp.Labeling.e.(e))
      ~b:(fun h -> if h < 2 * G.m g0 then inp.Labeling.b.(h) else dbi)
  in
  let inst = Instance.create g in
  let out, _ = so'.Spec.solve_det inst inp' in
  check "isolated nodes handled" true (Spec.is_valid so' g ~input:inp' ~output:out)

(* ------------------------------------------------------------------ *)
(* hierarchy and separation shape *)

let test_hierarchy_names () =
  check "level1" true (Spec.packed_name (H.level 1) = "sinkless-orientation");
  check "level2" true (Spec.packed_name (H.level 2) = "sinkless-orientation'");
  check "level3" true (Spec.packed_name (H.level 3) = "sinkless-orientation''")

let test_hierarchy_levels_list () =
  check_int "levels" 3 (List.length (H.levels 3))

let test_run_hard_levels () =
  List.iter
    (fun i ->
      let stats = Spec.run_hard (H.level i) ~seed:11 ~target:600 in
      check (Printf.sprintf "level %d det valid" i) true stats.Spec.det_valid;
      check (Printf.sprintf "level %d rand valid" i) true stats.Spec.rand_valid;
      check (Printf.sprintf "level %d det >= rand" i) true
        (stats.Spec.det_rounds >= stats.Spec.rand_rounds))
    [ 1; 2; 3 ]

let test_separation_shape () =
  (* Theorem 11 shape at level 2: deterministic rounds grow faster than
     randomized as n grows — compare multiplicative growth over a wide
     size range, averaged over seeds to damp the randomized solver's
     variance *)
  let avg target =
    let runs = List.map (fun seed -> Spec.run_hard (H.level 2) ~seed ~target) [ 13; 14; 15 ] in
    let det = List.fold_left (fun a s -> a + s.Spec.det_rounds) 0 runs in
    let rand = List.fold_left (fun a s -> a + s.Spec.rand_rounds) 0 runs in
    (float_of_int det /. 3.0, float_of_int rand /. 3.0)
  in
  let det_s, rand_s = avg 300 in
  let det_l, rand_l = avg 20000 in
  check "det grows" true (det_l > det_s);
  check "det grows faster than rand" true (det_l /. det_s > rand_l /. rand_s)

let test_balance_lemma5 () =
  (* the balanced √n split is the hardest (Lemma 5): compare measured
     deterministic rounds at fixed total size across splits *)
  let rounds ~base_target ~gadget_target =
    let rng = Random.State.make [| 15 |] in
    let pg, inp = Pi.hard_instance_parts so rng ~base_target ~gadget_target in
    let inst = Instance.create pg.PG.padded in
    let _, m = so'.Spec.solve_det inst inp in
    Meter.max_radius m
  in
  (* total ~ 3600 nodes in three splits *)
  let balanced = rounds ~base_target:60 ~gadget_target:60 in
  let tiny_gadgets = rounds ~base_target:360 ~gadget_target:10 in
  let huge_gadgets = rounds ~base_target:6 ~gadget_target:600 in
  check "balanced beats tiny gadgets" true (balanced >= tiny_gadgets);
  check "balanced beats huge gadgets" true (balanced >= huge_gadgets)

(* ------------------------------------------------------------------ *)
(* dangling ports: a port edge into a port that has two port edges     *)

let test_port_err2_and_phantom () =
  (* base: node 0 -- node 1 and node 0 -- node 1 again (parallel), so
     gadget 1's Port_1 or Port_2 stays fine but we engineer the collision
     differently: build the padded graph by hand from two valid gadgets
     where gadget B's Port_1 receives TWO port edges (from A's Port_1 and
     A's Port_2). A's ports are then NoPortErr facing a PortErr2 port:
     dangling, solved through phantom neighbors. *)
  let gadget = GB.gadget ~delta:3 ~height:3 in
  let gn = G.n gadget.GL.graph in
  let b = G.Builder.create (2 * gn) in
  (* copy gadget edges twice *)
  let gad_edges = ref [] in
  for copy = 0 to 1 do
    G.iter_edges gadget.GL.graph ~f:(fun e u v ->
        let pe = G.Builder.add_edge b ((copy * gn) + u) ((copy * gn) + v) in
        gad_edges := (pe, e) :: !gad_edges)
  done;
  let port copy i = (copy * gn) + GB.port_node ~delta:3 ~height:3 i in
  (* two port edges into B's Port_1 *)
  let pe1 = G.Builder.add_edge b (port 0 1) (port 1 1) in
  let pe2 = G.Builder.add_edge b (port 0 2) (port 1 1) in
  let g = G.Builder.build b in
  let gad_of_padded = Hashtbl.create 64 in
  List.iter (fun (pe, e) -> Hashtbl.replace gad_of_padded pe e) !gad_edges;
  let inp =
    Labeling.init g
      ~v:(fun v ->
        { PT.pi_v = (); gad_v = gadget.GL.nodes.(v mod gn) })
      ~e:(fun e ->
        if e = pe1 || e = pe2 then { PT.pi_e = (); etype = PT.PortEdge }
        else { PT.pi_e = (); etype = PT.GadEdge })
      ~b:(fun h ->
        let e = G.edge_of_half h in
        match Hashtbl.find_opt gad_of_padded e with
        | Some ge ->
          let side = h land 1 in
          let gh = (2 * ge) + side in
          {
            PT.pi_b = ();
            gad_b =
              {
                Repro_gadget.Ne_psi.bl = gadget.GL.halves.(gh);
                bcolor = gadget.GL.half_color2.(gh);
                bflags = gadget.GL.half_flags.(gh);
              };
          }
        | None ->
          let v = G.half_node g h in
          let local = v mod gn in
          {
            PT.pi_b = ();
            gad_b =
              {
                Repro_gadget.Ne_psi.bl = GL.Up;
                bcolor = gadget.GL.nodes.(local).GL.color2;
                bflags = GL.true_flags gadget local;
              };
          })
  in
  let inst = Instance.create g in
  let out, _ = so'.Spec.solve_det inst inp in
  check "solution valid" true (Spec.is_valid so' g ~input:inp ~output:out);
  (* B's Port_1 has two port edges: PortErr2 *)
  let ob : _ PT.pv_out = out.Labeling.v.(port 1 1) in
  check "overloaded port is PortErr2" true (ob.PT.perr = PT.PortErr2);
  (* A's ports face a GadOk PortErr2 port: they must be NoPortErr with a
     dangling virtual port handled by a phantom *)
  let oa1 : _ PT.pv_out = out.Labeling.v.(port 0 1) in
  let oa2 : _ PT.pv_out = out.Labeling.v.(port 0 2) in
  check "facing port stays NoPortErr" true
    (oa1.PT.perr = PT.NoPortErr && oa2.PT.perr = PT.NoPortErr);
  (* also with the randomized solver *)
  let out_r, _ = so'.Spec.solve_rand inst inp in
  check "rand valid" true (Spec.is_valid so' g ~input:inp ~output:out_r)

let test_port_edge_between_noport_nodes () =
  (* a port edge drawn between two interior (NoPort) nodes of valid
     gadgets: both sides must avoid NoPortErr-specific constraints and the
     instance must still be solvable *)
  let rng = Random.State.make [| 91 |] in
  let pg, inp = Pi.hard_instance_parts so rng ~base_target:6 ~gadget_target:22 in
  let g0 = pg.PG.padded in
  (* append one rogue port edge between two interior nodes *)
  let b = G.Builder.create (G.n g0) in
  G.iter_edges g0 ~f:(fun _ u v -> ignore (G.Builder.add_edge b u v));
  let interior off =
    (* node 2 of a gadget is never a port for height >= 3 *)
    pg.PG.node_offset.(off) + 2
  in
  let rogue = G.Builder.add_edge b (interior 0) (interior 1) in
  let g = G.Builder.build b in
  let inp' =
    Labeling.init g
      ~v:(fun v -> inp.Labeling.v.(v))
      ~e:(fun e ->
        if e = rogue then { PT.pi_e = (); etype = PT.PortEdge }
        else inp.Labeling.e.(e))
      ~b:(fun h ->
        if G.edge_of_half h = rogue then
          { PT.pi_b = (); gad_b = (inp.Labeling.b.(0) : _ PT.pb_in).PT.gad_b }
        else inp.Labeling.b.(h))
  in
  let inst = Instance.create g in
  let out, _ = so'.Spec.solve_det inst inp' in
  check "rogue port edge handled" true
    (Spec.is_valid so' g ~input:inp' ~output:out)

(* a valid port facing an overloaded (PortErr2) port that sits on the
   first half of their port edge: the valid port's virtual half must
   stand for its own padded half, so the Π output lands at its own port
   index. Each probe takes a clean Π² hard instance, picks a port edge
   whose two ends have different port indices and adds one more port
   edge from its first-half end [u] to a third gadget — to a non-port
   node, or to a port (which then is overloaded too) — so [u] becomes
   PortErr2. Both solvers must stay valid on every probe. *)
let test_phantom_faces_first_half () =
  let rng = Random.State.make [| 3 |] in
  let pg, inp =
    Pi.hard_instance_parts so rng ~base_target:30 ~gadget_target:60
  in
  let g0 = pg.PG.padded in
  let port_of v = (inp.Labeling.v.(v) : _ PT.pv_in).PT.gad_v.GL.port in
  let gadget_nodes b =
    let off = pg.PG.node_offset.(b) in
    List.init (G.n (pg.PG.gadget_of b).GL.graph) (fun k -> off + k)
  in
  let probes = ref 0 in
  Array.iter
    (fun e ->
      let u = G.half_node g0 (2 * e) and w = G.half_node g0 ((2 * e) + 1) in
      let bu = pg.PG.base_node_of.(u) and bw = pg.PG.base_node_of.(w) in
      if port_of u <> port_of w && bu <> bw then begin
        (* the third gadget: the first base node that is neither end's *)
        let b3 = ref 0 in
        while !b3 = bu || !b3 = bw do
          incr b3
        done;
        List.iter
          (fun (kind, wanted) ->
            let x =
              List.find (fun v -> wanted (port_of v)) (gadget_nodes !b3)
            in
            let b = G.Builder.create (G.n g0) in
            G.iter_edges g0 ~f:(fun _ a c -> ignore (G.Builder.add_edge b a c));
            let extra = G.Builder.add_edge b u x in
            let g = G.Builder.build b in
            let inp' =
              Labeling.init g
                ~v:(fun v -> inp.Labeling.v.(v))
                ~e:(fun e' -> inp.Labeling.e.(if e' = extra then e else e'))
                ~b:(fun h ->
                  if G.edge_of_half h = extra then
                    inp.Labeling.b.((2 * e) + (h land 1))
                  else inp.Labeling.b.(h))
            in
            let inst = Instance.create ~seed:e g in
            let name what =
              Printf.sprintf "port edge %d, extra edge to a %s: %s" e kind what
            in
            let det, _ = so'.Spec.solve_det inst inp' in
            let rand, _ = so'.Spec.solve_rand inst inp' in
            let ou : _ PT.pv_out = det.Labeling.v.(u) in
            check (name "u overloaded") true (ou.PT.perr = PT.PortErr2);
            check (name "det valid") true
              (Spec.is_valid so' g ~input:inp' ~output:det);
            check (name "rand valid") true
              (Spec.is_valid so' g ~input:inp' ~output:rand);
            incr probes)
          [ ("non-port node", Option.is_none); ("port", Option.is_some) ]
      end)
    pg.PG.port_edge_of;
  check "some probes ran" true (!probes > 0)

let prop_pi2_solver_valid =
  QCheck.Test.make ~name:"pi2 solver valid across random instances/seeds"
    ~count:15
    QCheck.(int_range 0 10000)
    (fun seed ->
      let stats = Spec.run_hard (H.level 2) ~seed ~target:400 in
      stats.Spec.det_valid && stats.Spec.rand_valid)

let prop_adversarial_valid =
  QCheck.Test.make ~name:"pi2 solver valid under random corruption"
    ~count:15
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pg, inp, _ =
        Adv.padded_with_corruption so rng ~base_target:14 ~gadget_target:25
          ~corrupt:(1 + (seed mod 5))
      in
      let g = pg.PG.padded in
      let inst = Instance.create ~seed g in
      let out, _ = so'.Spec.solve_det inst inp in
      Spec.is_valid so' g ~input:inp ~output:out)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pi2_solver_valid; prop_adversarial_valid ]

let suite =
  [
    ("padded sizes", `Quick, test_padded_sizes);
    ("padded port wiring", `Quick, test_padded_port_wiring);
    ("padded self-loop base", `Quick, test_padded_self_loop_base);
    ("padded rejects high degree", `Quick, test_padded_rejects_high_degree);
    ("padded distances stretch", `Quick, test_padded_distances_stretch);
    ("input labeling structure", `Quick, test_input_labeling_structure);
    ("pi' det valid", `Quick, test_pi_prime_det_valid);
    ("pi' rand valid", `Quick, test_pi_prime_rand_valid);
    ("pi' clean ports", `Quick, test_pi_prime_all_ports_valid);
    ("pi' sigma consistent", `Quick, test_pi_prime_sigma_consistent);
    ("pi' overhead charged", `Quick, test_pi_prime_overhead_charged);
    ("pi' rejects corrupted output", `Quick, test_pi_prime_checker_rejects_corrupted_output);
    ("pi' rejects bad sigma", `Quick, test_pi_prime_checker_rejects_bad_sigma);
    ("adversarial corruption solved", `Quick, test_adversarial_corruption_solved);
    ("fully corrupted instance", `Quick, test_fully_corrupted_instance);
    ("garbage input", `Quick, test_garbage_input);
    ("isolated nodes instance", `Quick, test_isolated_nodes_instance);
    ("port err2 and phantom", `Quick, test_port_err2_and_phantom);
    ("rogue port edge", `Quick, test_port_edge_between_noport_nodes);
    ("hierarchy names", `Quick, test_hierarchy_names);
    ("hierarchy levels list", `Quick, test_hierarchy_levels_list);
    ("run_hard levels 1-3", `Slow, test_run_hard_levels);
    ("separation shape", `Slow, test_separation_shape);
    ("Lemma 5 balance", `Slow, test_balance_lemma5);
    ("phantom faces a first-half port", `Quick, test_phantom_faces_first_half);
  ]
  @ qcheck_tests
