module G = Core.Graph.Multigraph
module T = Core.Graph.Traversal
module Gen = Core.Graph.Generators
module Instance = Core.Local.Instance
module Meter = Core.Local.Meter
module Ids = Core.Local.Ids
module Labeling = Core.Lcl.Labeling
module SO = Core.Problems.Sinkless_orientation
module GL = Core.Gadget.Labels
module GB = Core.Gadget.Build
module GC = Core.Gadget.Check
module Psi = Core.Gadget.Psi
module V = Core.Gadget.Verifier
module NP = Core.Gadget.Ne_psi
module Corrupt = Core.Gadget.Corrupt
module Fam = Core.Gadget.Family
module Spec = Core.Padding.Spec
module Pi = Core.Padding.Pi_prime
module PG = Core.Padding.Padded_graph
module PT = Core.Padding.Padded_types
module H = Core.Padding.Hierarchy
module Adv = Core.Padding.Adversary
module Fit = Repro_stats.Fit
module Problem = Core.Problem

type outcome = {
  tables : Table.t list;
  plots : string list;
}

type experiment = {
  id : string;
  doc : string;
  run : quick:bool -> outcome;
}

let log2 x = log x /. log 2.0
let logf n = log2 (float_of_int n)

(* ------------------------------------------------------------------ *)

(* the Figure-1 table: one registry row per line, its declared class as
   the paper column *)
let landscape_table sizes rows =
  Table.make ~title:"F1: measured round complexities (Figure 1)"
    ~columns:
      ("problem" :: "paper" :: List.map (fun n -> "n=" ^ string_of_int n) sizes)
    (List.map
       (fun (r : Problem.row) ->
         Table.Str r.name
         :: Table.Str (Fit.model_name r.declared)
         :: List.map (fun c -> Table.Int c) r.cells)
       rows)

let landscape sizes = landscape_table sizes (Problem.landscape sizes)

let f1 ~quick =
  let sizes =
    if quick then [ 300; 3000; 30000 ]
    else [ 300; 1000; 3000; 10000; 30000; 100000 ]
  in
  let rows = Problem.landscape sizes in
  let points (r : Problem.row) =
    List.map2 (fun n c -> (n, float_of_int c)) sizes r.cells
  in
  let fit_table =
    Table.make ~title:"F1: least-squares best fits"
      ~columns:[ "problem"; "paper"; "fitted model"; "coefficient"; "rel rmse" ]
      ~notes:
        [
          "rows are ordered by declared class, as in Figure 1: each class";
          "grows at least as fast as the one above it.";
        ]
      (List.map
         (fun (r : Problem.row) ->
           let fit = Fit.best_fit (points r) in
           [
             Table.Str r.name; Table.Str (Fit.model_name r.declared);
             Table.Str (Fit.model_name fit.Fit.model);
             Table.Float fit.Fit.coefficient; Table.Float fit.Fit.rmse;
           ])
         rows)
  in
  let series (label, name) =
    let r = List.find (fun (r : Problem.row) -> r.name = name) rows in
    let points = List.map (fun (n, y) -> (float_of_int n, y)) (points r) in
    { Ascii_plot.label; points }
  in
  let plot =
    Ascii_plot.render
      ~title:
        "rounds vs n: d=pi2-det  r=pi2-rand  D=so-det  R=so-rand  c=coloring"
      (List.map series
         [
           ('c', "coloring");
           ('R', "so-rand");
           ('D', "so-det");
           ('r', "pi2-rand");
           ('d', "pi2-det");
         ])
  in
  { tables = [ landscape_table sizes rows; fit_table ]; plots = [ plot ] }

(* ------------------------------------------------------------------ *)

let f3 ~quick =
  let trials = if quick then 20 else 50 in
  let rng = Random.State.make [| 3 |] in
  let accepted = ref 0 and rejected = ref 0 and dist_agree = ref 0 in
  for seed = 1 to trials do
    let g = SO.hard_instance rng ~n:200 in
    let inst = Instance.create ~seed g in
    let out, _ = SO.solve_deterministic inst in
    if SO.is_valid g out then incr accepted;
    let verdict =
      Core.Lcl.Distributed_check.run SO.problem inst
        ~input:(SO.trivial_input g) ~output:out
    in
    if verdict.Core.Lcl.Distributed_check.all_accept then incr dist_agree;
    let h = Random.State.int rng (2 * G.m g) in
    let bad = Labeling.copy out in
    bad.Labeling.b.(h) <-
      (match bad.Labeling.b.(h) with SO.Out -> SO.In | SO.In -> SO.Out);
    if not (SO.is_valid g bad) then incr rejected
  done;
  let table =
    Table.make ~title:"F3: sinkless orientation as an ne-LCL (Figure 3)"
      ~columns:[ "check"; "count"; "out of" ]
      ~notes:
        [ "a one-sided flip always breaks the edge constraint out<->in;";
          "the distributed checker is a real 1-round algorithm." ]
      [
        [ Table.Str "valid solutions accepted"; Table.Int !accepted; Table.Int trials ];
        [ Table.Str "accepted by distributed checker"; Table.Int !dist_agree; Table.Int trials ];
        [ Table.Str "one-sided flips rejected"; Table.Int !rejected; Table.Int trials ];
      ]
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let f2 ~quick =
  let heights = if quick then [ 2; 5; 8 ] else [ 2; 4; 6; 8; 10; 12 ] in
  let base = Gen.cycle 16 in
  let rows =
    List.map
      (fun height ->
        let gadget = GB.gadget ~delta:3 ~height in
        let pg = PG.build base ~delta:3 ~gadget_for:(fun _ -> gadget) in
        let mean, mx = PG.stretch_stats pg in
        [
          Table.Int height;
          Table.Int (G.n gadget.GL.graph);
          Table.Int (G.n pg.PG.padded);
          Table.Float mean;
          Table.Float mx;
        ])
      heights
  in
  let table =
    Table.make ~title:"F2: padding stretches base hops (Figure 2)"
      ~columns:[ "height"; "gadget n"; "padded n"; "stretch avg"; "stretch max" ]
      ~notes:
        [ "stretch = 2*height: linear in height, logarithmic in gadget size";
          "- a (log, Delta)-gadget family per Definition 2." ]
      rows
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let t1a ~quick =
  let splits =
    if quick then [ (10, 10); (40, 40); (160, 160) ]
    else [ (10, 10); (20, 20); (40, 40); (80, 80); (160, 160); (320, 320) ]
  in
  let so = H.sinkless_orientation in
  let so' = Pi.pad so in
  let rows =
    List.map
      (fun (base_target, gadget_target) ->
        let rng = Random.State.make [| 5 |] in
        let pg, inp = Pi.hard_instance_parts so rng ~base_target ~gadget_target in
        let g = pg.PG.padded in
        let inst = Instance.create g in
        let out, m = so'.Spec.solve_det inst inp in
        assert (Spec.is_valid so' g ~input:inp ~output:out);
        let base_inst = Instance.create pg.PG.base in
        let _, mb = SO.solve_deterministic base_inst in
        let t_base = Meter.max_radius mb in
        let depth = T.diameter (pg.PG.gadget_of 0).GL.graph in
        let measured = Meter.max_radius m in
        [
          Table.Int base_target; Table.Int gadget_target; Table.Int (G.n g);
          Table.Int measured; Table.Int t_base; Table.Int depth;
          Table.Float (float_of_int measured /. float_of_int (max 1 (t_base * depth)));
        ])
      splits
  in
  let table =
    Table.make ~title:"T1a: Lemma 4 upper bound, measured"
      ~columns:[ "base"; "gadget"; "N"; "det"; "T_SO(base)"; "depth"; "ratio" ]
      ~notes:
        [ "measured/predicted stays bounded: rounds track";
          "T_SO(base) x gadget-depth, Lemma 4's upper bound." ]
      rows
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let t1b ~quick =
  let total = if quick then 1500 else 4000 in
  let so = H.sinkless_orientation in
  let so' = Pi.pad so in
  let rows =
    List.map
      (fun beta ->
        let base_target = max 4 (int_of_float (float_of_int total ** beta)) in
        let gadget_target = max 10 (total / base_target) in
        let rng = Random.State.make [| 6 |] in
        let pg, inp = Pi.hard_instance_parts so rng ~base_target ~gadget_target in
        let inst = Instance.create pg.PG.padded in
        let _, m = so'.Spec.solve_det inst inp in
        let nn = G.n pg.PG.padded in
        let l = logf nn in
        [
          Table.Float beta; Table.Int base_target; Table.Int gadget_target;
          Table.Int nn; Table.Int (Meter.max_radius m);
          Table.Float (float_of_int (Meter.max_radius m) /. (l *. l));
        ])
      [ 0.15; 0.3; 0.5; 0.7; 0.85 ]
  in
  let table =
    Table.make ~title:"T1b: Lemma 5 balance ablation"
      ~columns:[ "beta"; "base"; "gadget"; "N"; "det"; "det/log^2 N" ]
      ~notes:
        [ "normalized hardness peaks at the balanced split (beta ~ 0.5):";
          "huge gadgets lose base hardness, tiny ones lose overhead." ]
      rows
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let f4 ~quick =
  let corruptions = if quick then [ 0; 2; 10 ] else [ 0; 1; 2; 5; 10; 20 ] in
  let so = H.sinkless_orientation in
  let so' = Pi.pad so in
  let rows =
    List.map
      (fun corrupt ->
        let rng = Random.State.make [| 7 |] in
        let pg, inp, _ =
          Adv.padded_with_corruption so rng ~base_target:40 ~gadget_target:40
            ~corrupt
        in
        let g = pg.PG.padded in
        let inst = Instance.create ~seed:(corrupt + 1) g in
        let out, _ = so'.Spec.solve_det inst inp in
        let count p =
          Array.fold_left
            (fun a (o : _ PT.pv_out) -> if o.PT.perr = p then a + 1 else a)
            0 out.Labeling.v
        in
        [
          Table.Int corrupt; Table.Int (G.n g);
          Table.Int (count PT.PortErr1); Table.Int (count PT.PortErr2);
          Table.Int (count PT.NoPortErr);
          Table.Bool (Spec.is_valid so' g ~input:inp ~output:out);
        ])
      corruptions
  in
  let table =
    Table.make ~title:"F4: invalid gadgets and port errors (Figure 4)"
      ~columns:[ "corrupted"; "N"; "PortErr1"; "PortErr2"; "NoPortErr"; "valid" ]
      ~notes:
        [ "each corrupted gadget silences ~6 ports (its own + facing);";
          "the solver still solves SO on the surviving contraction." ]
      rows
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let t6 ~quick =
  let heights = if quick then [ 2; 6; 10 ] else [ 2; 4; 6; 8; 10; 12; 14 ] in
  let rows_a =
    List.map
      (fun height ->
        let t = GB.gadget ~delta:3 ~height in
        let n = G.n t.GL.graph in
        let out, m = V.run ~delta:3 ~n t in
        [
          Table.Int height; Table.Int n;
          Table.Bool (GC.is_valid ~delta:3 t && V.is_all_ok out);
          Table.Int (Meter.max_radius m); Table.Int (V.proof_radius ~n);
        ])
      heights
  in
  let ta =
    Table.make ~title:"T6a: valid gadgets and V's radius (Figures 5-6)"
      ~columns:[ "height"; "n"; "valid"; "V radius"; "4log2(n)+8" ]
      ~notes:[ "V's measured radius = 2*height = Theta(log n)." ]
      rows_a
  in
  let rng = Random.State.make [| 8 |] in
  let trials = if quick then 8 else 20 in
  let rows_b =
    List.map
      (fun kind ->
        let caught = ref 0 and proof_ok = ref 0 in
        for _ = 1 to trials do
          let t = GB.gadget ~delta:3 ~height:5 in
          let t' = Corrupt.apply rng kind t in
          if not (GC.is_valid ~delta:3 t') then begin
            incr caught;
            let n = G.n t'.GL.graph in
            let out, _ = V.run ~delta:3 ~n t' in
            if (not (V.is_all_ok out)) && Psi.is_valid ~delta:3 t' out then
              incr proof_ok
          end
        done;
        [
          Table.Str (Format.asprintf "%a" Corrupt.pp_kind kind);
          Table.Int trials; Table.Int !caught; Table.Int !proof_ok;
        ])
      Corrupt.all_kinds
  in
  let tb =
    Table.make ~title:"T6b: error proofs per corruption kind"
      ~columns:[ "kind"; "trials"; "caught"; "proof ok" ]
      ~notes:[ "caught = proof ok: every conviction is certifiable." ]
      rows_b
  in
  { tables = [ ta; tb ]; plots = [] }

(* ------------------------------------------------------------------ *)

let l9 ~quick =
  let t = GB.gadget ~delta:3 ~height:5 in
  let n = G.n t.GL.graph in
  let strategies =
    [
      ( "all point to center",
        Array.init n (fun v ->
            if t.GL.nodes.(v).GL.kind = GL.Center then Psi.Ptr (Psi.PDown 1)
            else if GL.has_half t v GL.Parent then Psi.Ptr Psi.PParent
            else Psi.Ptr Psi.PUp) );
      ( "all point right/left",
        Array.init n (fun v ->
            if GL.has_half t v GL.Right then Psi.Ptr Psi.PRight
            else Psi.Ptr Psi.PLeft) );
      ( "all point down",
        Array.init n (fun v ->
            if t.GL.nodes.(v).GL.kind = GL.Center then Psi.Ptr (Psi.PDown 2)
            else if GL.has_half t v GL.RChild then Psi.Ptr Psi.PRChild
            else Psi.Ptr Psi.PRight) );
      ("one fake Error", Array.init n (fun v -> if v = 17 then Psi.Error else Psi.Ok));
      ( "mixed ok/pointer",
        Array.init n (fun v -> if v mod 2 = 0 then Psi.Ok else Psi.Ptr Psi.PParent) );
    ]
  in
  let rows =
    List.map
      (fun (name, out) ->
        [ Table.Str name; Table.Bool (Psi.is_valid ~delta:3 t out) ])
      strategies
  in
  let rng = Random.State.make [| 9 |] in
  let tries = if quick then 300 else 2000 in
  let fooled = ref 0 in
  for _ = 1 to tries do
    let out =
      Array.init n (fun v ->
          match Random.State.int rng 6 with
          | 0 -> Psi.Ptr Psi.PRight
          | 1 -> Psi.Ptr Psi.PLeft
          | 2 -> Psi.Ptr Psi.PParent
          | 3 -> Psi.Ptr Psi.PRChild
          | 4 -> Psi.Ptr Psi.PUp
          | _ ->
            if t.GL.nodes.(v).GL.kind = GL.Center then
              Psi.Ptr (Psi.PDown (1 + Random.State.int rng 3))
            else Psi.Ptr Psi.PParent)
    in
    if Psi.is_valid ~delta:3 t out then incr fooled
  done;
  let rows =
    rows
    @ [
        [
          Table.Str (Printf.sprintf "%d random pointer labelings" tries);
          Table.Bool (!fooled > 0);
        ];
      ]
  in
  let table =
    Table.make ~title:"L9: no error proof on a valid gadget (Lemma 9)"
      ~columns:[ "adversarial strategy"; "accepted (must be false)" ]
      rows
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let f78 ~quick =
  let rng = Random.State.make [| 10 |] in
  let trials = if quick then 10 else 30 in
  let color_used = ref 0 and accepted = ref 0 in
  for _ = 1 to trials do
    let t = GB.gadget ~delta:3 ~height:4 in
    let t' = Corrupt.apply rng Corrupt.Parallel_edge t in
    let sol, _ = NP.prove ~delta:3 ~n:(G.n t'.GL.graph) t' in
    if NP.is_valid ~delta:3 t' sol then incr accepted;
    if Array.exists (fun (h : NP.half_out) -> h.NP.color_claim <> None) sol.Labeling.b
    then incr color_used
  done;
  let chain_goal = if quick then 5 else 15 in
  let chain_trials = ref 0 and chain_ok = ref 0 and chains_used = ref 0 in
  let attempts = ref 0 in
  while !chain_trials < chain_goal && !attempts < 500 do
    incr attempts;
    let t = GB.gadget ~delta:3 ~height:4 in
    let t' = GL.with_truthful_flags (Corrupt.apply rng Corrupt.Relabel_half t) in
    let has_2cd =
      List.exists
        (fun (v : GC.violation) -> v.GC.rule = "2c" || v.GC.rule = "2d")
        (GC.violations ~delta:3 t')
    in
    if has_2cd then begin
      incr chain_trials;
      let sol, _ = NP.prove ~delta:3 ~n:(G.n t'.GL.graph) t' in
      if NP.is_valid ~delta:3 t' sol then incr chain_ok;
      if Array.exists (fun (o : NP.node_out) -> o.NP.chains <> []) sol.Labeling.v
      then incr chains_used
    end
  done;
  let t = GB.gadget ~delta:3 ~height:4 in
  let forged = NP.all_ok_solution t in
  forged.Labeling.v.(5) <- { NP.status = NP.NWit; chains = [] };
  let table =
    Table.make ~title:"F7/F8: node-edge-checkable proofs (Figures 7-8)"
      ~columns:[ "check"; "ok"; "out of"; "mechanism used in" ]
      [
        [ Table.Str "parallel-edge proofs accepted"; Table.Int !accepted;
          Table.Int trials; Table.Int !color_used ];
        [ Table.Str "2c/2d chain proofs accepted"; Table.Int !chain_ok;
          Table.Int !chain_trials; Table.Int !chains_used ];
        [ Table.Str "forged witness rejected";
          Table.Int (if NP.is_valid ~delta:3 t forged then 0 else 1);
          Table.Int 1; Table.Int 0 ];
      ]
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let t11 ~quick =
  let targets = if quick then [ 1000; 10000 ] else [ 1000; 10000; 100000 ] in
  let seeds = if quick then [ 3 ] else [ 3; 4; 5 ] in
  let levels = [ 1; 2; 3 ] in
  let rows = ref [] in
  let fit_rows = ref [] in
  List.iter
    (fun i ->
      let det_pts = ref [] and rand_pts = ref [] in
      List.iter
        (fun target ->
          let runs = List.map (fun seed -> Spec.run_hard (H.level i) ~seed ~target) seeds in
          List.iter (fun s -> assert (s.Spec.det_valid && s.Spec.rand_valid)) runs;
          let avg f =
            float_of_int (List.fold_left (fun a s -> a + f s) 0 runs)
            /. float_of_int (List.length runs)
          in
          let n = (List.hd runs).Spec.n in
          let det = avg (fun s -> s.Spec.det_rounds) in
          let rand = avg (fun s -> s.Spec.rand_rounds) in
          det_pts := (n, det) :: !det_pts;
          rand_pts := (n, rand) :: !rand_pts;
          let l = logf n in
          rows :=
            [
              Table.Int i; Table.Int target; Table.Int n; Table.Float det;
              Table.Float rand; Table.Float (det /. max 1.0 rand);
              Table.Float (l /. log2 l);
            ]
            :: !rows)
        targets;
      let fd = Fit.best_fit !det_pts and fr = Fit.best_fit !rand_pts in
      fit_rows :=
        [
          Table.Int i;
          Table.Str (Printf.sprintf "%.2f * %s" fd.Fit.coefficient (Fit.model_name fd.Fit.model));
          Table.Str (Printf.sprintf "%.2f * %s" fr.Fit.coefficient (Fit.model_name fr.Fit.model));
        ]
        :: !fit_rows)
    levels;
  let main =
    Table.make ~title:"T11: the hierarchy Pi^i (Theorem 11)"
      ~columns:[ "level"; "target"; "n"; "det"; "rand"; "D/R"; "logn/llogn" ]
      (List.rev !rows)
  in
  let fits =
    Table.make ~title:"T11: fitted complexity classes"
      ~columns:[ "level"; "det fit"; "rand fit" ]
      ~notes:
        [
          "paper: det Theta(log^i n), rand Theta(log^{i-1} n loglog n);";
          "D/R tracks log n / log log n at every level: randomness helps";
          "polynomially, not exponentially.";
        ]
      (List.rev !fit_rows)
  in
  { tables = [ main; fits ]; plots = [] }

(* ------------------------------------------------------------------ *)

let t1_generic ~quick =
  let targets =
    if quick then [ 400; 6400 ] else [ 400; 1600; 6400; 25600; 102400 ]
  in
  let so = H.sinkless_orientation in
  let lin = Fam.linear_family ~delta:3 in
  let so_lin = Pi.pad_with lin so in
  let rows =
    List.map
      (fun target ->
        let s = Spec.run_hard (Spec.Packed so_lin) ~seed:5 ~target in
        assert (s.Spec.det_valid && s.Spec.rand_valid);
        let sq = sqrt (float_of_int s.Spec.n) in
        [
          Table.Int target; Table.Int s.Spec.n; Table.Int s.Spec.det_rounds;
          Table.Int s.Spec.rand_rounds;
          Table.Float (float_of_int s.Spec.det_rounds /. sq);
          Table.Float
            (float_of_int s.Spec.det_rounds
            /. float_of_int (max 1 s.Spec.rand_rounds));
        ])
      targets
  in
  let table =
    Table.make
      ~title:"T1-generic: padding with the linear (d(n)=Theta(n)) family"
      ~columns:[ "target"; "n"; "det"; "rand"; "det/sqrtN"; "D/R" ]
      ~notes:
        [
          "Theorem 1 is black-box in the family: with star-of-paths";
          "gadgets both complexities become ~sqrt(n) * polylog - the";
          "polynomial region of Figure 1.";
        ]
      rows
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let ids_robustness ~quick =
  let sizes = if quick then [ 1000; 10000 ] else [ 1000; 10000; 100000 ] in
  let rng = Random.State.make [| 14 |] in
  let rows =
    List.map
      (fun n ->
        let g = SO.hard_instance rng ~n in
        let run ids =
          let inst = Instance.create ~ids g in
          let out, m = SO.solve_deterministic inst in
          assert (SO.is_valid g out);
          Meter.max_radius m
        in
        [
          Table.Int n;
          Table.Int (run (Ids.sequential (G.n g)));
          Table.Int (run (Ids.random_permutation rng (G.n g)));
          Table.Int (run (Ids.spread rng (G.n g)));
          Table.Int (run (Ids.adversarial_bfs g));
        ])
      sizes
  in
  let table =
    Table.make
      ~title:"IDS: SO deterministic rounds under different id assignments"
      ~columns:[ "n"; "sequential"; "random perm"; "spread (poly)"; "adversarial BFS" ]
      ~notes:
        [
          "the deterministic solver's locality is stable across id";
          "assignments (ids only break ties) - the Theta(log n) class is";
          "a property of the problem, not of the naming.";
        ]
      rows
  in
  { tables = [ table ]; plots = [] }

let rand_profile ~quick =
  let sizes = if quick then [ 1000; 30000 ] else [ 1000; 10000; 100000; 300000 ] in
  let rng = Random.State.make [| 15 |] in
  let rows =
    List.map
      (fun n ->
        let g = SO.hard_instance rng ~n in
        let inst = Instance.create ~seed:n g in
        let out, m = SO.solve_randomized inst in
        assert (SO.is_valid g out);
        let hist = Meter.histogram m in
        let nodes_at r =
          try List.assoc r hist with Not_found -> 0
        in
        let above_2 =
          List.fold_left (fun a (r, c) -> if r > 2 then a + c else a) 0 hist
        in
        [
          Table.Int (G.n g);
          Table.Int (Meter.max_radius m);
          Table.Float (100.0 *. float_of_int (nodes_at 1) /. float_of_int (G.n g));
          Table.Float (100.0 *. float_of_int (nodes_at 2) /. float_of_int (G.n g));
          Table.Float (100.0 *. float_of_int above_2 /. float_of_int (G.n g));
        ])
      sizes
  in
  let table =
    Table.make
      ~title:"R1: the randomized repair profile (why loglog-class behaviour)"
      ~columns:[ "n"; "max radius"; "% done r=1"; "% done r=2"; "% r>2" ]
      ~notes:
        [
          "the shattering shape: ~3/4 of the nodes finish after the coin";
          "flip, stragglers repair within a tiny radius that barely grows";
          "with n - the observable profile of the Theta(loglog n) class.";
        ]
      rows
  in
  { tables = [ table ]; plots = [] }

(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "F1"; doc = "Figure 1: the measured complexity landscape"; run = f1 };
    { id = "F3"; doc = "Figure 3: sinkless orientation as an ne-LCL"; run = f3 };
    { id = "F2"; doc = "Figure 2: padding stretches base hops"; run = f2 };
    { id = "T1a"; doc = "Lemma 4: the padded upper bound, measured"; run = t1a };
    { id = "T1b"; doc = "Lemma 5: the balance ablation"; run = t1b };
    { id = "F4"; doc = "Figure 4: invalid gadgets and port errors"; run = f4 };
    { id = "T6"; doc = "Theorem 6 + Figures 5-6: the (log,D) gadget family"; run = t6 };
    { id = "L9"; doc = "Lemma 9: no error proofs on valid gadgets"; run = l9 };
    { id = "F78"; doc = "Figures 7-8: node-edge-checkable proofs"; run = f78 };
    { id = "T11"; doc = "Theorem 11: the hierarchy"; run = t11 };
    { id = "T1g"; doc = "Theorem 1 with the linear gadget family"; run = t1_generic };
    { id = "IDS"; doc = "SO det rounds across id assignments"; run = ids_robustness };
    { id = "R1"; doc = "the randomized repair profile"; run = rand_profile };
  ]

let ids = List.map (fun e -> e.id) all

let find id =
  List.find_opt (fun e -> String.lowercase_ascii e.id = String.lowercase_ascii id) all

let run_and_print ?(quick = false) e =
  let outcome = e.run ~quick in
  List.iter (fun t -> Format.printf "%a@." Table.pp t) outcome.tables;
  List.iter print_string outcome.plots
