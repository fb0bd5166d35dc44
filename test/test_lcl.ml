(* Tests for the ne-LCL formalism: labelings, views, the checker. *)

module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_labeling_sizes () =
  let g = Gen.cycle 4 in
  let l = Labeling.const g ~v:0 ~e:"x" ~b:true in
  check "matches" true (Labeling.matches g l);
  check_int "v" 4 (Array.length l.Labeling.v);
  check_int "e" 4 (Array.length l.Labeling.e);
  check_int "b" 8 (Array.length l.Labeling.b)

let test_labeling_init_map_zip () =
  let g = Gen.path 3 in
  let l = Labeling.init g ~v:(fun v -> v) ~e:(fun e -> e * 10) ~b:(fun h -> h) in
  check_int "v1" 1 l.Labeling.v.(1);
  check_int "e1" 10 l.Labeling.e.(1);
  let m = Labeling.map ~fv:(fun x -> x + 1) ~fe:string_of_int ~fb:(fun x -> -x) l in
  check_int "mapped v" 2 m.Labeling.v.(1);
  Alcotest.(check string) "mapped e" "10" m.Labeling.e.(1);
  let z = Labeling.zip l m in
  check "zip pairs" true (z.Labeling.v.(1) = (1, 2))

let test_labeling_copy_isolated () =
  let g = Gen.path 3 in
  let l = Labeling.const g ~v:0 ~e:() ~b:() in
  let c = Labeling.copy l in
  c.Labeling.v.(0) <- 9;
  check_int "original unchanged" 0 l.Labeling.v.(0)

(* a toy ne-LCL: node outputs must equal their degree; halves must carry
   the same parity on both sides *)
let toy : (unit, unit, unit, int, unit, bool) Ne_lcl.t =
  {
    Ne_lcl.name = "toy";
    check_node = (fun nv -> Ne_lcl.v_out nv = Ne_lcl.degree nv);
    check_edge = (fun ev -> Ne_lcl.bu_out ev = Ne_lcl.bw_out ev);
  }

let test_checker_accepts () =
  let g = Gen.cycle 5 in
  let input = Labeling.const g ~v:() ~e:() ~b:() in
  let output = Labeling.init g ~v:(fun v -> G.degree g v) ~e:(fun _ -> ()) ~b:(fun _ -> true) in
  check "valid" true (Ne_lcl.is_valid toy g ~input ~output)

let test_checker_rejects_node () =
  let g = Gen.cycle 5 in
  let input = Labeling.const g ~v:() ~e:() ~b:() in
  let output = Labeling.init g ~v:(fun v -> if v = 3 then 99 else 2) ~e:(fun _ -> ()) ~b:(fun _ -> false) in
  let vs = Ne_lcl.violations toy g ~input ~output in
  check_int "one violation" 1 (List.length vs);
  check "is node 3" true (vs = [ Ne_lcl.Node 3 ])

let test_checker_rejects_edge () =
  let g = Gen.path 3 in
  let input = Labeling.const g ~v:() ~e:() ~b:() in
  let output = Labeling.init g ~v:(fun v -> G.degree g v) ~e:(fun _ -> ()) ~b:(fun h -> h = 0) in
  let vs = Ne_lcl.violations toy g ~input ~output in
  check "contains edge 0" true (List.mem (Ne_lcl.Edge 0) vs)

let test_node_view_ports () =
  let g = G.of_edges ~n:3 [ (0, 1); (0, 2) ] in
  let input = Labeling.init g ~v:(fun v -> v) ~e:(fun e -> e) ~b:(fun h -> h) in
  let output = Labeling.const g ~v:() ~e:() ~b:() in
  let nv = Ne_lcl.node_view g ~input ~output 0 in
  let ports f = List.init (Ne_lcl.degree nv) (f nv) in
  check_int "degree" 2 (Ne_lcl.degree nv);
  check_int "own input" 0 (Ne_lcl.v_in nv);
  check "edge inputs in port order" true (ports Ne_lcl.e_in = [ 0; 1 ]);
  check "half inputs are own sides" true (ports Ne_lcl.b_in = [ 0; 2 ])

let test_edge_view_sides () =
  let g = G.of_edges ~n:2 [ (0, 1) ] in
  let input = Labeling.init g ~v:(fun v -> v * 10) ~e:(fun _ -> 5) ~b:(fun h -> h) in
  let output = Labeling.const g ~v:() ~e:() ~b:() in
  let ev = Ne_lcl.edge_view g ~input ~output 0 in
  check "not loop" false (Ne_lcl.self_loop ev);
  check_int "u input" 0 (Ne_lcl.u_in ev);
  check_int "w input" 10 (Ne_lcl.w_in ev);
  check_int "bu" 0 (Ne_lcl.bu_in ev);
  check_int "bw" 1 (Ne_lcl.bw_in ev)

let test_edge_view_self_loop () =
  let g = G.of_edges ~n:1 [ (0, 0) ] in
  let input = Labeling.const g ~v:7 ~e:() ~b:() in
  let output = Labeling.const g ~v:() ~e:() ~b:() in
  let ev = Ne_lcl.edge_view g ~input ~output 0 in
  check "loop" true (Ne_lcl.self_loop ev);
  check_int "same node both sides" (Ne_lcl.u_in ev) (Ne_lcl.w_in ev)

let prop_checker_counts =
  (* flipping exactly one node output of a valid toy solution produces
     exactly one node violation *)
  QCheck.Test.make ~name:"single mutation -> single node violation" ~count:100
    QCheck.(pair (int_range 3 20) (int_range 0 1000))
    (fun (n, pick) ->
      let g = Gen.cycle n in
      let input = Labeling.const g ~v:() ~e:() ~b:() in
      let output =
        Labeling.init g ~v:(fun v -> G.degree g v) ~e:(fun _ -> ()) ~b:(fun _ -> true)
      in
      let v = pick mod n in
      output.Labeling.v.(v) <- 99;
      Ne_lcl.violations toy g ~input ~output = [ Ne_lcl.Node v ])

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_checker_counts ]

(* ------------------------------------------------------------------ *)
(* C_E symmetry: the sweep evaluates each edge once, in the orientation
   side 0 = u, side 1 = w, while the one-round check it replaces
   evaluated it from both endpoints. The two agree only if every C_E
   is invariant under swapping its sides, so that is tested here for
   every C_E in the tree, on valid and corrupted outputs. *)

module Labels = Repro_gadget.Labels
module GB = Repro_gadget.Build
module NP = Repro_gadget.Ne_psi
module LG = Repro_gadget.Linear_gadget
module Corrupt = Repro_gadget.Corrupt
module Instance = Repro_local.Instance
module Spec = Repro_padding.Spec
module GG = Repro_fuzz.Gen_graph
module GLab = Repro_fuzz.Gen_labeling
module SO = Repro_problems.Sinkless_orientation
module K = Test_kernels

let swap_sides (ev : _ Ne_lcl.edge_view) =
  {
    ev with
    Ne_lcl.uvi = ev.Ne_lcl.wvi;
    uvo = ev.Ne_lcl.wvo;
    wvi = ev.Ne_lcl.uvi;
    wvo = ev.Ne_lcl.uvo;
    ubi = ev.Ne_lcl.wbi;
    ubo = ev.Ne_lcl.wbo;
    wbi = ev.Ne_lcl.ubi;
    wbo = ev.Ne_lcl.ubo;
    u = ev.Ne_lcl.w;
    w = ev.Ne_lcl.u;
    hu = ev.Ne_lcl.hw;
    hw = ev.Ne_lcl.hu;
  }

(* C_E of every edge of [g] in both orientations must agree; adds the
   number of rejected edge views to [rejected] *)
let symmetric ~rejected name p g ~input ~output =
  for e = 0 to G.m g - 1 do
    let ev = Ne_lcl.edge_view g ~input ~output e in
    let ok = p.Ne_lcl.check_edge ev in
    if not ok then incr rejected;
    if ok <> p.Ne_lcl.check_edge (swap_sides ev) then
      Alcotest.failf "%s: C_E of edge %d changes when its sides swap" name e
  done

(* the rejection count, so no problem passes vacuously *)
let some_rejected name rejected =
  check (name ^ ": some edge views rejected") true (!rejected > 0)

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* [out] with [k] random pairs of node labels and of half labels swapped *)
let shuffled rng k out =
  let out = Labeling.copy out in
  let nv = Array.length out.Labeling.v and nb = Array.length out.Labeling.b in
  for _ = 1 to k do
    if nv > 0 then
      swap out.Labeling.v (Random.State.int rng nv) (Random.State.int rng nv);
    if nb > 0 then
      swap out.Labeling.b (Random.State.int rng nb) (Random.State.int rng nb)
  done;
  out

(* the landscape problems, the trivial problem and the toy, on the
   fuzz targets' multigraphs (self-loops and parallel edges) *)
let test_symmetric_multigraph () =
  let so = ref 0 and col = ref 0 and two = ref 0 and mis = ref 0 in
  let mat = ref 0 and toy_r = ref 0 and triv = ref 0 in
  for seed = 0 to 199 do
    let g =
      GG.to_graph
        (Repro_fuzz.Gen.root (GG.gen GG.Any) (Repro_fuzz.Rng.of_seed seed))
    in
    let rng = Random.State.make [| seed |] in
    let unit = Labeling.const g ~v:() ~e:() ~b:() in
    let name p = Printf.sprintf "%s seed %d" p seed in
    symmetric ~rejected:so (name "so") SO.problem g ~input:unit
      ~output:(GLab.so rng g);
    symmetric ~rejected:col (name "coloring")
      (Repro_problems.Coloring.problem ~delta:(G.max_degree g))
      g ~input:unit ~output:(GLab.coloring rng g);
    let two_out =
      Labeling.init g ~v:(fun _ -> Random.State.int rng 3) ~e:ignore ~b:ignore
    in
    symmetric ~rejected:two (name "two-coloring")
      Repro_problems.Two_coloring.problem g ~input:unit ~output:two_out;
    symmetric ~rejected:mis (name "mis") Repro_problems.Mis.problem g
      ~input:unit ~output:(GLab.mis rng g);
    symmetric ~rejected:mat (name "matching") Repro_problems.Matching.problem
      g ~input:unit ~output:(GLab.matching rng g);
    symmetric ~rejected:triv (name "trivial") Repro_problems.Trivial.problem g
      ~input:unit ~output:unit;
    let b = Array.init (2 * G.m g) (fun _ -> Random.State.bool rng) in
    symmetric ~rejected:toy_r (name "toy") toy g ~input:unit
      ~output:{ (Labeling.const g ~v:0 ~e:() ~b:true) with Labeling.b }
  done;
  List.iter
    (fun (name, r) -> some_rejected name r)
    [
      ("so", so);
      ("coloring", col);
      ("two-coloring", two);
      ("mis", mis);
      ("matching", mat);
      ("toy", toy_r);
    ];
  check "trivial rejects nothing" true (!triv = 0)

(* Ψ_G of the log and the linear family, on the proofs of corrupted
   gadgets (witnesses, pointers, bad-edge marks, colour claims, chains)
   and on shuffled copies of them *)
let test_symmetric_gadget () =
  let rng = Random.State.make [| 24 |] in
  let psi = ref 0 and linear = ref 0 in
  let both rejected name p prove (t : Labels.t) =
    let sol = prove t in
    let input = NP.input_of t in
    symmetric ~rejected name p t.Labels.graph ~input ~output:sol;
    symmetric ~rejected (name ^ " shuffled") p t.Labels.graph ~input
      ~output:(shuffled rng 4 sol)
  in
  for delta = 2 to 4 do
    let n t = G.n t.Labels.graph in
    let log_prove t = fst (NP.prove ~delta ~n:(n t) t) in
    let lin_prove t = fst (LG.prove ~delta ~n:(n t) t) in
    List.iter
      (fun kind ->
        let name = Format.asprintf "Δ=%d %a" delta Corrupt.pp_kind kind in
        both psi ("psi " ^ name) (NP.problem ~delta) log_prove
          (Corrupt.apply rng kind (GB.gadget ~delta ~height:3));
        both linear ("linear " ^ name) (LG.problem ~delta) lin_prove
          (Corrupt.apply rng kind (LG.build ~delta ~leg:4)))
      Corrupt.all_kinds
  done;
  some_rejected "psi" psi;
  some_rejected "linear" linear

(* Π² and Π³ (whose C_E nests Π²'s on the virtual edge), on solver
   outputs and every corruption the kernel tests apply *)
let test_symmetric_padded () =
  let run name spec ~extra rng (g, input) =
    let rejected = ref 0 in
    let inst = Instance.create ~seed:1 g in
    List.iter
      (fun (which, out) ->
        let p = spec.Spec.problem in
        symmetric ~rejected (name ^ " " ^ which) p g ~input ~output:out;
        List.iter
          (fun (c, bad) ->
            Option.iter
              (fun output ->
                symmetric ~rejected (name ^ " " ^ which ^ " / " ^ c) p g
                  ~input ~output)
              bad)
          (K.corruptions rng g out @ extra rng out))
      [
        ("det", fst (spec.Spec.solve_det inst input));
        ("rand", fst (spec.Spec.solve_rand inst input));
      ];
    some_rejected name rejected
  in
  let rng = Random.State.make [| 25 |] in
  run "pi2" K.pi2 ~extra:(fun _ _ -> []) rng
    (K.pi2.Spec.hard_instance rng ~target:150);
  run "pi2 adversarial" K.pi2 ~extra:(fun _ _ -> []) rng
    (K.adversarial K.so rng ~base_target:8 ~gadget_target:30 3);
  run "pi3" K.pi3 ~extra:K.corrupt_inner rng
    (K.pi3.Spec.hard_instance rng ~target:60)

let suite =
  [
    ("labeling sizes", `Quick, test_labeling_sizes);
    ("labeling init/map/zip", `Quick, test_labeling_init_map_zip);
    ("labeling copy isolation", `Quick, test_labeling_copy_isolated);
    ("checker accepts", `Quick, test_checker_accepts);
    ("checker rejects node", `Quick, test_checker_rejects_node);
    ("checker rejects edge", `Quick, test_checker_rejects_edge);
    ("node view ports", `Quick, test_node_view_ports);
    ("edge view sides", `Quick, test_edge_view_sides);
    ("edge view self-loop", `Quick, test_edge_view_self_loop);
    ("C_E symmetric: multigraph problems", `Quick, test_symmetric_multigraph);
    ("C_E symmetric: gadget families", `Quick, test_symmetric_gadget);
    ("C_E symmetric: Π² and Π³", `Quick, test_symmetric_padded);
  ]
  @ qcheck_tests
