(* Tests for the (d, Δ)-gadget family abstraction, the linear star-of-
   paths family, and Theorem 1's black-box padding with it. *)

module G = Repro_graph.Multigraph
module L = Repro_gadget.Labels
module LG = Repro_gadget.Linear_gadget
module Fam = Repro_gadget.Family
module NP = Repro_gadget.Ne_psi
module Ne_lcl = Repro_lcl.Ne_lcl
module Labeling = Repro_lcl.Labeling
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module Spec = Repro_padding.Spec
module Pi = Repro_padding.Pi_prime
module H = Repro_padding.Hierarchy
module Psi = Repro_gadget.Psi
module Corrupt = Repro_gadget.Corrupt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let psi_ok ~delta t sol =
  Ne_lcl.is_valid (LG.problem ~delta) t.L.graph ~input:(NP.input_of t)
    ~output:sol

(* ------------------------------------------------------------------ *)
(* the linear gadget itself *)

let test_linear_build () =
  let t = LG.build ~delta:3 ~leg:7 in
  check_int "size" 22 (G.n t.L.graph);
  check "valid" true (LG.is_valid ~delta:3 t);
  check "flags" true (L.flags_ok t);
  check "colors" true (L.color_ok t);
  (* ports exist at leg ends *)
  let ports =
    Array.to_list t.L.nodes |> List.filter_map (fun nl -> nl.L.port)
  in
  check "three ports" true (List.sort compare ports = [ 1; 2; 3 ])

let test_linear_depth_linear () =
  let depth leg =
    Repro_graph.Traversal.diameter (LG.build ~delta:3 ~leg).L.graph
  in
  check "diameter ~ 2 leg" true (depth 20 >= 2 * (depth 10) - 4)

let test_linear_prove_valid () =
  List.iter
    (fun leg ->
      let t = LG.build ~delta:3 ~leg in
      let n = G.n t.L.graph in
      let sol, m = LG.prove ~delta:3 ~n t in
      check "all ok" true
        (Array.for_all
           (fun (o : NP.node_out) -> o.NP.status = NP.NOk)
           sol.Labeling.v);
      check "psi accepts" true (psi_ok ~delta:3 t sol);
      (* d(n) = n family: the prover may need the whole component *)
      check "charge bounded by size" true (Meter.max_radius m <= n))
    [ 1; 3; 10; 40 ]

let test_linear_corruptions_proved () =
  let rng = Random.State.make [| 81 |] in
  let labels = [| L.Parent; L.RChild; L.Up; L.Down 1; L.Left |] in
  for trial = 1 to 25 do
    let t = LG.build ~delta:3 ~leg:8 in
    let h = Random.State.int rng (2 * G.m t.L.graph) in
    let lab = labels.(Random.State.int rng (Array.length labels)) in
    let t' = L.with_truthful_flags (L.relabel_half t h lab) in
    if not (LG.is_valid ~delta:3 t') then begin
      let sol, _ = LG.prove ~delta:3 ~n:(G.n t'.L.graph) t' in
      check (Printf.sprintf "trial %d proof ok" trial) true
        (psi_ok ~delta:3 t' sol);
      check
        (Printf.sprintf "trial %d not all ok" trial)
        true
        (Array.exists
           (fun (o : NP.node_out) -> o.NP.status <> NP.NOk)
           sol.Labeling.v)
    end
  done

let test_linear_cycle_disguise () =
  (* a Parent/RChild cycle: locally valid everywhere, not a gadget; the
     prover must output only error labels (all-PParent), and the checker
     must accept them *)
  let k = 8 in
  let b = G.Builder.create k in
  let entries = ref [] in
  for v = 0 to k - 1 do
    let e = G.Builder.add_edge b v ((v + 1) mod k) in
    entries := (2 * e, L.RChild) :: ((2 * e) + 1, L.Parent) :: !entries
  done;
  let graph = G.Builder.build b in
  let halves = Array.make (2 * k) L.Up in
  List.iter (fun (h, l) -> halves.(h) <- l) !entries;
  let nodes =
    Array.init k (fun v ->
        { L.kind = L.Index 1; port = None; color2 = v mod 4 })
  in
  (* make a proper distance-2 coloring on the cycle of length 8 *)
  let color = [| 0; 1; 2; 3; 0; 1; 2; 3 |] in
  let nodes = Array.mapi (fun v nl -> { nl with L.color2 = color.(v) }) nodes in
  let half_color2 =
    Array.init (2 * k) (fun h -> color.(G.half_node graph h))
  in
  let dummy = { L.f_right = false; f_left = false; f_child = false } in
  let t =
    L.with_truthful_flags
      { L.graph; nodes; halves; half_color2; half_flags = Array.make (2 * k) dummy }
  in
  check "locally valid" true (LG.is_valid ~delta:3 t);
  let sol, _ = LG.prove ~delta:3 ~n:k t in
  check "prover uses only error labels" true
    (Array.for_all
       (fun (o : NP.node_out) -> o.NP.status <> NP.NOk)
       sol.Labeling.v);
  check "psi accepts the pointer cycle" true (psi_ok ~delta:3 t sol)

let test_linear_lemma9 () =
  (* no all-error labeling on a valid linear gadget *)
  let t = LG.build ~delta:3 ~leg:5 in
  let sol = NP.all_ok_solution t in
  let g = t.L.graph in
  let node_out v : NP.node_out =
    if t.L.nodes.(v).L.kind = L.Center then
      { NP.status = NP.NPtr (Psi.PDown 1); chains = [] }
    else if L.has_half t v L.Parent then
      { NP.status = NP.NPtr Psi.PParent; chains = [] }
    else { NP.status = NP.NPtr Psi.PUp; chains = [] }
  in
  for v = 0 to G.n g - 1 do
    sol.Labeling.v.(v) <- node_out v
  done;
  for h = 0 to (2 * G.m g) - 1 do
    sol.Labeling.b.(h) <-
      { (sol.Labeling.b.(h)) with NP.mirror = node_out (G.half_node g h) }
  done;
  check "rejected" false (psi_ok ~delta:3 t sol)

(* ------------------------------------------------------------------ *)
(* the family records *)

let test_family_log () =
  let fam = Fam.log_family ~delta:3 in
  let t = fam.Fam.make ~target:100 in
  check "big enough" true (G.n t.L.graph >= 100);
  check "valid" true (fam.Fam.is_valid t);
  let sol, _ = fam.Fam.prove ~n:(G.n t.L.graph) t in
  check "prove accepted" true
    (Ne_lcl.is_valid fam.Fam.ne_problem t.L.graph ~input:(NP.input_of t)
       ~output:sol)

let test_family_linear () =
  let fam = Fam.linear_family ~delta:4 in
  let t = fam.Fam.make ~target:100 in
  check "big enough" true (G.n t.L.graph >= 100);
  check "valid" true (fam.Fam.is_valid t);
  (* linear depth: diameter ~ size/2 for delta=4 *)
  check "linear depth" true (fam.Fam.depth t >= G.n t.L.graph / 4)

let test_family_depth_separation () =
  let log3 = Fam.log_family ~delta:3 in
  let lin3 = Fam.linear_family ~delta:3 in
  let tl = log3.Fam.make ~target:3000 in
  let tn = lin3.Fam.make ~target:3000 in
  check "log family shallow" true (log3.Fam.depth tl < 40);
  check "linear family deep" true (lin3.Fam.depth tn > 1000)

(* [sol]'s node outputs and half outputs each shuffled, the mirrors
   then set to fit: outputs that no longer fit their edges, so the edge
   constraint's rejecting branches run *)
let shuffled rng g (sol : NP.solution) =
  let shuffle a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  let v = shuffle sol.Labeling.v in
  let b =
    Array.mapi
      (fun h (ho : NP.half_out) ->
        { ho with NP.mirror = v.(G.half_node g h) })
      (shuffle sol.Labeling.b)
  in
  { sol with Labeling.v; b }

(* [fam.edge_ok] on an edge's labels equals [fam.ne_problem]'s
   [check_edge] on the edge's window, and for the log family also the
   copying reference kernel, at every edge of the family's gadget and of
   each of its corruptions, under the prover's solution, the all-OK one
   and the prover's shuffled. Π' checks gadget edges through [edge_ok]
   alone. *)
let edge_ok_agrees (fam : Fam.t) ~ref_check_edge =
  let t = fam.Fam.make ~target:60 in
  let rng = Random.State.make [| 29 |] in
  let gadgets =
    ("built", t)
    :: List.map
         (fun k ->
           (Format.asprintf "%a" Corrupt.pp_kind k, Corrupt.apply rng k t))
         Corrupt.all_kinds
  in
  let rejected = ref 0 and mismatches = ref [] in
  List.iter
    (fun (name, t) ->
      let g = t.L.graph in
      let input = NP.input_of t in
      let proved, _ = fam.Fam.prove ~n:(G.n g) t in
      List.iter
        (fun (sol_name, (output : NP.solution)) ->
          for e = 0 to G.m g - 1 do
            let u = G.half_node g (2 * e) and w = G.half_node g ((2 * e) + 1) in
            let got =
              fam.Fam.edge_ok input.Labeling.v.(u) input.Labeling.v.(w)
                output.Labeling.v.(u) output.Labeling.v.(w)
                input.Labeling.b.(2 * e)
                input.Labeling.b.((2 * e) + 1)
                output.Labeling.b.(2 * e)
                output.Labeling.b.((2 * e) + 1)
            in
            let ev = Ne_lcl.edge_view g ~input ~output e in
            let agrees c = c ev = got in
            if
              not
                (agrees fam.Fam.ne_problem.Ne_lcl.check_edge
                && Option.fold ~none:true ~some:agrees ref_check_edge)
            then
              mismatches :=
                Printf.sprintf "%s, %s, edge %d" name sol_name e
                :: !mismatches;
            if not got then incr rejected
          done)
        [
          ("proved", proved);
          ("all-OK", NP.all_ok_solution t);
          ("shuffled", shuffled rng g proved);
        ])
    gadgets;
  Alcotest.(check (list string)) "edges where they differ" [] !mismatches;
  (* the comparison reached the rejecting branches too *)
  check "some edge rejected" true (!rejected > 0)

let test_edge_ok_log () =
  edge_ok_agrees (Fam.log_family ~delta:3)
    ~ref_check_edge:(Some Kernel_ref.Ne_psi_ref.check_edge)

let test_edge_ok_linear () =
  edge_ok_agrees (Fam.linear_family ~delta:3) ~ref_check_edge:None

(* ------------------------------------------------------------------ *)
(* padding with the linear family (Theorem 1, black box) *)

let so_lin = Pi.pad_with (Fam.linear_family ~delta:3) H.sinkless_orientation

let test_pad_linear_valid () =
  let stats = Spec.run_hard (Spec.Packed so_lin) ~seed:21 ~target:900 in
  check "det valid" true stats.Spec.det_valid;
  check "rand valid" true stats.Spec.rand_valid;
  check "det >= rand" true (stats.Spec.det_rounds >= stats.Spec.rand_rounds)

let test_pad_linear_polynomial () =
  (* with d(n) = n gadgets, both complexities become polynomial:
     quadrupling n roughly doubles the rounds (√n scaling) *)
  let r target = (Spec.run_hard (Spec.Packed so_lin) ~seed:22 ~target).Spec.det_rounds in
  let r1 = r 1600 and r2 = r 6400 in
  check "polynomial growth" true (float_of_int r2 > 1.5 *. float_of_int r1);
  check "not exploding" true (float_of_int r2 < 3.5 *. float_of_int r1)

let test_pad_linear_rejects_small_delta () =
  check "delta too small" true
    (try
       ignore (Pi.pad_with (Fam.linear_family ~delta:2) H.sinkless_orientation);
       false
     with Invalid_argument _ -> true)

let test_pad_log_unchanged () =
  (* the refactor preserves the log-family behaviour *)
  let stats = Spec.run_hard (H.level 2) ~seed:23 ~target:900 in
  check "still valid" true (stats.Spec.det_valid && stats.Spec.rand_valid)

let prop_pad_linear_valid =
  QCheck.Test.make ~name:"linear-family padding valid across seeds" ~count:10
    QCheck.(int_range 0 10000)
    (fun seed ->
      let stats = Spec.run_hard (Spec.Packed so_lin) ~seed ~target:400 in
      stats.Spec.det_valid && stats.Spec.rand_valid)

let qcheck_tests = List.map QCheck_alcotest.to_alcotest [ prop_pad_linear_valid ]

let suite =
  [
    ("linear build", `Quick, test_linear_build);
    ("linear depth", `Quick, test_linear_depth_linear);
    ("linear prove valid", `Quick, test_linear_prove_valid);
    ("linear corruptions proved", `Quick, test_linear_corruptions_proved);
    ("linear cycle disguise", `Quick, test_linear_cycle_disguise);
    ("linear Lemma 9", `Quick, test_linear_lemma9);
    ("family log", `Quick, test_family_log);
    ("family linear", `Quick, test_family_linear);
    ("family depth separation", `Quick, test_family_depth_separation);
    ("edge_ok equals check_edge (log)", `Quick, test_edge_ok_log);
    ("edge_ok equals check_edge (linear)", `Quick, test_edge_ok_linear);
    ("pad linear valid", `Quick, test_pad_linear_valid);
    ("pad linear polynomial", `Slow, test_pad_linear_polynomial);
    ("pad linear rejects small delta", `Quick, test_pad_linear_rejects_small_delta);
    ("pad log unchanged", `Quick, test_pad_log_unchanged);
  ]
  @ qcheck_tests
