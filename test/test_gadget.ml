(* Tests for the (log, Δ)-gadget family: construction, each §4.2/§4.3
   constraint individually, the Ψ error-pointer problem, the prover V, the
   node-edge encoding Ψ_G (with adversarial forging attempts: Lemma 9). *)

module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module L = Repro_gadget.Labels
module B = Repro_gadget.Build
module C = Repro_gadget.Check
module Psi = Repro_gadget.Psi
module V = Repro_gadget.Verifier
module NP = Repro_gadget.Ne_psi
module Corrupt = Repro_gadget.Corrupt
module Meter = Repro_local.Meter
module Labeling = Repro_lcl.Labeling

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let valid_gadget ?(delta = 3) ?(height = 4) () = B.gadget ~delta ~height

let rules_of ~delta t =
  C.violations ~delta t |> List.map (fun v -> v.C.rule) |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* construction *)

let test_sizes () =
  check_int "sub size" 15 (B.sub_gadget_size ~height:4);
  check_int "gadget size" 46 (B.gadget_size ~delta:3 ~height:4);
  check_int "height_for exact" 4 (B.height_for ~delta:3 ~target:46);
  check_int "height_for above" 5 (B.height_for ~delta:3 ~target:47);
  check_int "height_for minimum" 2 (B.height_for ~delta:3 ~target:1)

let test_valid_gadgets_pass () =
  List.iter
    (fun (delta, height) ->
      let t = B.gadget ~delta ~height in
      check
        (Printf.sprintf "valid d=%d h=%d" delta height)
        true
        (C.is_valid ~delta t))
    [ (1, 2); (2, 3); (3, 2); (3, 6); (4, 4); (5, 3) ]

let test_ports_exist () =
  let delta = 4 and height = 5 in
  let t = B.gadget ~delta ~height in
  for i = 1 to delta do
    let p = B.port_node ~delta ~height i in
    check ("port " ^ string_of_int i) true (t.L.nodes.(p).L.port = Some i);
    check "port index matches" true (t.L.nodes.(p).L.kind = L.Index i)
  done

let test_center_structure () =
  let t = valid_gadget () in
  check "center kind" true (t.L.nodes.(B.center).L.kind = L.Center);
  check_int "center degree" 3 (G.degree t.L.graph B.center)

let test_diameter_logarithmic () =
  (* gadget diameter grows linearly in height = logarithmically in size *)
  let diam h = T.diameter (B.gadget ~delta:3 ~height:h).L.graph in
  let d4 = diam 4 and d8 = diam 8 in
  check "linear in height" true (d8 <= (2 * d4) + 4 && d8 > d4)

let test_input_coloring_valid () =
  List.iter
    (fun h ->
      let t = B.gadget ~delta:3 ~height:h in
      check ("color_ok h=" ^ string_of_int h) true (L.color_ok t);
      check ("flags_ok h=" ^ string_of_int h) true (L.flags_ok t))
    [ 2; 3; 5; 7 ]

let test_follow () =
  let delta = 3 and height = 3 in
  let t = B.gadget ~delta ~height in
  let root = B.node_of_coord ~delta ~height ~sub:1 ~level:0 ~x:0 in
  check "root up = center" true (L.follow t root L.Up = Some B.center);
  let l1 = B.node_of_coord ~delta ~height ~sub:1 ~level:1 ~x:0 in
  check "root lchild" true (L.follow t root L.LChild = Some l1);
  check "lchild parent" true (L.follow t l1 L.Parent = Some root);
  check "2c path closes" true
    (L.follow_path t root [ L.LChild; L.Right; L.Parent ] = Some root);
  let bot = B.node_of_coord ~delta ~height ~sub:1 ~level:2 ~x:0 in
  check "2d path closes" true
    (L.follow_path t bot [ L.Right; L.LChild; L.Left; L.Parent ] = Some bot
    || L.follow_path t bot [ L.Right; L.LChild; L.Left; L.Parent ] = None)

(* ------------------------------------------------------------------ *)
(* each constraint individually *)

let relabel t h lab = L.with_truthful_flags (L.relabel_half t h lab)

let test_rule_1b_duplicate_labels () =
  let t = valid_gadget () in
  (* give some node two Parent halves: find a half labeled Left and make
     it Parent on a node that already has a Parent *)
  let g = t.L.graph in
  let target = ref (-1) in
  for h = 0 to (2 * G.m g) - 1 do
    if !target < 0 && t.L.halves.(h) = L.Left
       && L.has_half t (G.half_node g h) L.Parent
    then target := h
  done;
  let t' = relabel t !target L.Parent in
  check "1b reported" true (List.mem "1b" (rules_of ~delta:3 t'))

let test_rule_1c_wrong_index () =
  let t = valid_gadget () in
  (* node 1 is the root of sub-gadget 1 *)
  let t' = L.relabel_node t 2 { (t.L.nodes.(2)) with L.kind = L.Index 2 } in
  check "1c reported" true (List.mem "1c" (rules_of ~delta:3 t'))

let test_rule_1d_port_mismatch () =
  let delta = 3 and height = 4 in
  let t = B.gadget ~delta ~height in
  let p = B.port_node ~delta ~height 1 in
  let t' = L.relabel_node t p { (t.L.nodes.(p)) with L.port = Some 2 } in
  check "1d reported" true (List.mem "1d" (rules_of ~delta:3 t'))

let test_rule_2a_left_right () =
  let t = valid_gadget () in
  let g = t.L.graph in
  let target = ref (-1) in
  for h = 0 to (2 * G.m g) - 1 do
    if !target < 0 && t.L.halves.(h) = L.Left then target := h
  done;
  let t' = relabel t !target L.Right in
  check "2a or 1b reported" true
    (let r = rules_of ~delta:3 t' in
     List.mem "2a" r || List.mem "1b" r)

let test_rule_2b_parent_child () =
  let t = valid_gadget () in
  let g = t.L.graph in
  let target = ref (-1) in
  for h = 0 to (2 * G.m g) - 1 do
    if !target < 0 && t.L.halves.(h) = L.LChild
       && t.L.halves.(G.mate h) = L.Parent
    then target := h
  done;
  let t' = relabel t !target L.Left in
  let r = rules_of ~delta:3 t' in
  check "2b-ish reported" true (r <> [])

let test_rule_2c_broken_square () =
  (* break the LChild-Right-Parent square: rewire a Right edge of the
     bottom level to skip one node by relabeling; simplest: relabel a
     bottom Right half as Parent is caught by other rules, so instead drop
     a horizontal edge: 2c needs "path exists", dropping breaks nothing;
     instead corrupt by pointing a LChild to the wrong node via an extra
     edge. We verify that the specific 2c rule fires on a hand-built
     broken square. *)
  let delta = 1 and height = 3 in
  let t = B.sub_gadget ~index:1 ~height in
  (* sub-gadget alone: nodes 0=root,1=(1,0),2=(1,1),3..6 bottom *)
  (* detach the horizontal edge (1,0)-(1,1) and reattach as (1,0)-(2,0)'s
     slot: relabel the Right half of node 1 pointing to 2 into a Right
     half pointing... we cannot rewire labels only; instead relabel the
     Parent half of node 4 ((2,1)) to point Left, breaking the square at
     node 3. *)
  ignore delta;
  let g = t.L.graph in
  (* find the half at node 3 labeled Right (to node 4) and make its mate
     inconsistent: relabel node 4's Left half as Parent *)
  let target = ref (-1) in
  for h = 0 to (2 * G.m g) - 1 do
    if !target < 0 && G.half_node g h = 4 && t.L.halves.(h) = L.Left then
      target := h
  done;
  if !target >= 0 then begin
    let t' = relabel t !target L.Parent in
    check "square corruption caught" true (rules_of ~delta:1 t' <> [])
  end
  else check "setup found no half" true true

let test_rule_3e_root_shape () =
  let t = valid_gadget () in
  (* remove the LChild half of the root of sub-gadget 1 by relabeling it
     as Down 1 (nonsense on an Index node) *)
  let g = t.L.graph in
  let root = 1 in
  let target = ref (-1) in
  Array.iter
    (fun h -> if t.L.halves.(h) = L.LChild then target := h)
    (G.halves g root);
  let t' = relabel t !target (L.Down 1) in
  let r = rules_of ~delta:3 t' in
  check "3e or 1c reported" true (List.mem "3e" r || List.mem "1c" r)

let test_rule_3f_single_child () =
  let t = valid_gadget () in
  let g = t.L.graph in
  (* relabel an RChild half as Right on an internal node *)
  let target = ref (-1) in
  for h = 0 to (2 * G.m g) - 1 do
    let v = G.half_node g h in
    if !target < 0 && t.L.halves.(h) = L.RChild && L.has_half t v L.LChild
       && L.has_half t v L.Right
    then target := h
  done;
  if !target >= 0 then begin
    let t' = relabel t !target L.Parent in
    check "reported" true (rules_of ~delta:3 t' <> [])
  end

let test_rule_3h_fake_port () =
  let t = valid_gadget () in
  (* an internal node claims to be a port *)
  let t' = L.relabel_node t 2 { (t.L.nodes.(2)) with L.port = Some 1 } in
  let r = rules_of ~delta:3 t' in
  check "3h or 1d" true (List.mem "3h" r || List.mem "1d" r)

let test_rule_3h_dropped_port () =
  let delta = 3 and height = 4 in
  let t = B.gadget ~delta ~height in
  let p = B.port_node ~delta ~height 2 in
  let t' = L.relabel_node t p { (t.L.nodes.(p)) with L.port = None } in
  check "3h reported" true (List.mem "3h" (rules_of ~delta:3 t'))

let test_rule_c2a_center_degree () =
  (* a gadget built for delta=3 checked against delta=4 fails at the
     center *)
  let t = valid_gadget () in
  check "c2a reported" true (List.mem "c2a" (rules_of ~delta:4 t))

let test_rule_c2d_duplicate_subgadget () =
  let t = valid_gadget ~delta:2 () in
  (* relabel all of sub-gadget 2 as Index 1 (and its Down edge) *)
  let g = t.L.graph in
  let t' = ref t in
  for v = 0 to G.n g - 1 do
    match t.L.nodes.(v).L.kind with
    | L.Index 2 ->
      t' :=
        L.relabel_node !t' v
          {
            (t.L.nodes.(v)) with
            L.kind = L.Index 1;
            L.port = (match t.L.nodes.(v).L.port with Some _ -> Some 1 | None -> None);
          }
    | L.Index _ | L.Center -> ()
  done;
  (* also fix the center's Down_2 label to Down_1 so only c2d can fire *)
  let tfix = ref !t' in
  Array.iter
    (fun h ->
      if (!t').L.halves.(h) = L.Down 2 then
        tfix := L.relabel_half !tfix h (L.Down 1))
    (G.halves g B.center);
  let r = rules_of ~delta:2 (L.with_truthful_flags !tfix) in
  check "c2d or 1b reported" true (List.mem "c2d" r || List.mem "1b" r)

let test_rule_fl_stale_flags () =
  let t = valid_gadget () in
  let rng = Random.State.make [| 31 |] in
  let t' = Corrupt.apply rng Corrupt.Stale_flags t in
  check "fl reported" true (List.mem "fl" (rules_of ~delta:3 t'))

let test_rule_1a_self_loop () =
  let t = valid_gadget ~height:3 () in
  let g = t.L.graph in
  let b = G.Builder.create (G.n g) in
  G.iter_edges g ~f:(fun _ u v -> ignore (G.Builder.add_edge b u v));
  ignore (G.Builder.add_edge b 5 5);
  let g' = G.Builder.build b in
  let extend a x y = Array.append a [| x; y |] in
  let t' =
    L.with_truthful_flags
      {
        L.graph = g';
        nodes = t.L.nodes;
        halves = extend t.L.halves L.Left L.Right;
        half_color2 = extend t.L.half_color2 0 0;
        half_flags = extend t.L.half_flags t.L.half_flags.(0) t.L.half_flags.(0);
      }
  in
  check "1a reported" true (List.mem "1a" (rules_of ~delta:3 t'))

let test_lemma7_wraparound () =
  (* Lemma 7's adversarial structure: a sub-gadget whose bottom level
     wraps around into a cycle cannot satisfy all constraints. Build a
     2-level "sub-gadget" where the bottom is a cycle of 2 nodes. *)
  let b = G.Builder.create 3 in
  (* root 0, bottom 1 2 with wraparound *)
  let e01 = G.Builder.add_edge b 0 1 in
  let e02 = G.Builder.add_edge b 0 2 in
  let e12 = G.Builder.add_edge b 1 2 in
  let e21 = G.Builder.add_edge b 2 1 in
  let g = G.Builder.build b in
  let halves = Array.make 8 L.Parent in
  halves.(2 * e01) <- L.LChild;
  halves.((2 * e01) + 1) <- L.Parent;
  halves.(2 * e02) <- L.RChild;
  halves.((2 * e02) + 1) <- L.Parent;
  halves.(2 * e12) <- L.Right;
  halves.((2 * e12) + 1) <- L.Left;
  halves.(2 * e21) <- L.Right;
  halves.((2 * e21) + 1) <- L.Left;
  let nodes =
    [|
      { L.kind = L.Index 1; port = None; color2 = 0 };
      { L.kind = L.Index 1; port = None; color2 = 1 };
      { L.kind = L.Index 1; port = None; color2 = 2 };
    |]
  in
  let t =
    L.with_truthful_flags
      {
        L.graph = g;
        nodes;
        halves;
        half_color2 = Array.make 8 0;
        half_flags = Array.make 8 { L.f_right = false; f_left = false; f_child = false };
      }
  in
  check "wraparound caught" true (rules_of ~delta:1 t <> [])

(* ------------------------------------------------------------------ *)
(* Ψ and the prover V *)

let test_v_ok_on_valid () =
  List.iter
    (fun h ->
      let t = B.gadget ~delta:3 ~height:h in
      let n = G.n t.L.graph in
      let out, m = V.run ~delta:3 ~n t in
      check ("all ok h=" ^ string_of_int h) true (V.is_all_ok out);
      check "psi constraints" true (Psi.is_valid ~delta:3 t out);
      check "radius below proof radius" true
        (Meter.max_radius m <= V.proof_radius ~n))
    [ 2; 4; 6; 9 ]

let test_v_radius_grows_with_size () =
  let radius h =
    let t = B.gadget ~delta:3 ~height:h in
    let n = G.n t.L.graph in
    let _, m = V.run ~delta:3 ~n t in
    Meter.max_radius m
  in
  check "grows" true (radius 10 > radius 4)

let test_v_proofs_on_corruptions () =
  let rng = Random.State.make [| 41 |] in
  for trial = 1 to 30 do
    let t = B.gadget ~delta:3 ~height:4 in
    let t', kind = Corrupt.random rng t in
    let n = G.n t'.L.graph in
    let out, _ = V.run ~delta:3 ~n t' in
    check
      (Format.asprintf "trial %d (%a): not all ok" trial Corrupt.pp_kind kind)
      false (V.is_all_ok out);
    check
      (Format.asprintf "trial %d (%a): psi valid" trial Corrupt.pp_kind kind)
      true
      (Psi.is_valid ~delta:3 t' out)
  done

let test_psi_rejects_naked_error () =
  (* claiming Error on a valid gadget violates rule 2 *)
  let t = valid_gadget () in
  let out = Array.make (G.n t.L.graph) Psi.Ok in
  out.(3) <- Psi.Error;
  check "rejected" false (Psi.is_valid ~delta:3 t out)

let test_psi_rejects_mixed_ok () =
  let t = valid_gadget () in
  let out = Array.make (G.n t.L.graph) Psi.Ok in
  out.(3) <- Psi.Ptr Psi.PParent;
  check "rejected" false (Psi.is_valid ~delta:3 t out)

let test_psi_lemma9_all_pointer_attempts () =
  (* Lemma 9: on a valid gadget no all-error labeling passes. Try the
     natural adversarial strategies: everyone points Parent/Up toward the
     center; everyone points Right; everyone points at a fixed target. *)
  let t = valid_gadget ~height:3 () in
  let g = t.L.graph in
  let toward_center =
    Array.init (G.n g) (fun v ->
        if t.L.nodes.(v).L.kind = L.Center then Psi.Ptr (Psi.PDown 1)
        else if L.has_half t v L.Parent then Psi.Ptr Psi.PParent
        else Psi.Ptr Psi.PUp)
  in
  check "toward-center rejected" false (Psi.is_valid ~delta:3 t toward_center);
  let all_right =
    Array.init (G.n g) (fun v ->
        if L.has_half t v L.Right then Psi.Ptr Psi.PRight else Psi.Ptr Psi.PParent)
  in
  check "all-right rejected" false (Psi.is_valid ~delta:3 t all_right);
  let all_down =
    Array.init (G.n g) (fun v ->
        if t.L.nodes.(v).L.kind = L.Center then Psi.Ptr (Psi.PDown 2)
        else if L.has_half t v L.RChild then Psi.Ptr Psi.PRChild
        else Psi.Ptr Psi.PRight)
  in
  check "all-down rejected" false (Psi.is_valid ~delta:3 t all_down)

let test_psi_lemma9_exhaustive_small () =
  (* exhaustively check a small gadget: no labeling where node 0 (the
     center) uses a pointer and all others use one of two natural choices
     passes — a bounded brute-force variant of Lemma 9 *)
  let t = B.gadget ~delta:1 ~height:2 in
  let g = t.L.graph in
  let n = G.n g in
  (* options per node: pointer choices only (Ok is excluded since we test
     error labelings; Error is excluded by rule 2 on a valid gadget) *)
  let options v =
    let base = [ Psi.PParent; Psi.PRight; Psi.PLeft; Psi.PRChild; Psi.PUp ] in
    if t.L.nodes.(v).L.kind = L.Center then [ Psi.PDown 1 ] else base
  in
  let rec enumerate v acc found =
    if found then true
    else if v = n then Psi.is_valid ~delta:1 t (Array.of_list (List.rev acc))
    else
      List.exists
        (fun p -> enumerate (v + 1) (Psi.Ptr p :: acc) found)
        (options v)
  in
  check "no pointer labeling passes" false (enumerate 0 [] false)

(* ------------------------------------------------------------------ *)
(* Ψ_G: the node-edge encoding *)

let test_ne_valid_gadgets () =
  List.iter
    (fun h ->
      let t = B.gadget ~delta:3 ~height:h in
      let n = G.n t.L.graph in
      let sol, _ = NP.prove ~delta:3 ~n t in
      check ("ne prove valid h=" ^ string_of_int h) true (NP.is_valid ~delta:3 t sol);
      check "all ok" true
        (Array.for_all
           (fun (o : NP.node_out) -> o.NP.status = NP.NOk)
           sol.Labeling.v);
      check "all-ok accepted" true (NP.is_valid ~delta:3 t (NP.all_ok_solution t)))
    [ 2; 4; 6 ]

let test_ne_proofs_on_corruptions () =
  let rng = Random.State.make [| 43 |] in
  for trial = 1 to 40 do
    let t = B.gadget ~delta:3 ~height:4 in
    let t', kind = Corrupt.random rng t in
    let n = G.n t'.L.graph in
    let sol, _ = NP.prove ~delta:3 ~n t' in
    check
      (Format.asprintf "ne trial %d (%a)" trial Corrupt.pp_kind kind)
      true
      (NP.is_valid ~delta:3 t' sol);
    check
      (Format.asprintf "ne trial %d has witness" trial)
      true
      (Array.exists (fun (o : NP.node_out) -> o.NP.status = NP.NWit) sol.Labeling.v)
  done

let test_ne_forged_witness_rejected () =
  let t = valid_gadget () in
  let sol = NP.all_ok_solution t in
  sol.Labeling.v.(5) <- { NP.status = NP.NWit; chains = [] };
  check "rejected (mirror broken)" false (NP.is_valid ~delta:3 t sol)

let test_ne_forged_witness_with_mirrors_rejected () =
  let t = valid_gadget () in
  let g = t.L.graph in
  let sol = NP.all_ok_solution t in
  (* set everyone to a pointer chain toward the center, with mirrors *)
  let node_out v : NP.node_out =
    if v = 5 then { NP.status = NP.NWit; chains = [] }
    else if t.L.nodes.(v).L.kind = L.Center then
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
  (* node 5's NWit has no justification on a valid gadget *)
  check "rejected" false (NP.is_valid ~delta:3 t sol)

let test_ne_forged_chain_rejected () =
  (* laying a closed chain is fine but gives no witness; an open chain on
     a valid gadget cannot satisfy the forcing constraints *)
  let t = valid_gadget () in
  let sol = NP.all_ok_solution t in
  let cid = { NP.ccolor = 0; cpos = NP.chain_last NP.K2c; ckind = NP.K2c } in
  sol.Labeling.v.(7) <- { NP.status = NP.NWit; chains = [ cid ] };
  let g = t.L.graph in
  Array.iter
    (fun h ->
      sol.Labeling.b.(h) <-
        { (sol.Labeling.b.(h)) with NP.mirror = sol.Labeling.v.(7) })
    (G.halves g 7);
  check "rejected (no from_prev chain)" false (NP.is_valid ~delta:3 t sol)

let test_ne_parallel_edge_color_proof () =
  (* duplicated edge -> the prover must convict via color claims *)
  let t = valid_gadget ~height:3 () in
  let g = t.L.graph in
  let b = G.Builder.create (G.n g) in
  G.iter_edges g ~f:(fun _ u v -> ignore (G.Builder.add_edge b u v));
  let u0, v0 = G.endpoints g 2 in
  ignore (G.Builder.add_edge b u0 v0);
  let g' = G.Builder.build b in
  let ext a x y = Array.append a [| x; y |] in
  let t' =
    L.with_truthful_flags
      {
        L.graph = g';
        nodes = t.L.nodes;
        halves = ext t.L.halves t.L.halves.(4) t.L.halves.(5);
        half_color2 = ext t.L.half_color2 t.L.half_color2.(4) t.L.half_color2.(5);
        half_flags = ext t.L.half_flags t.L.half_flags.(4) t.L.half_flags.(5);
      }
  in
  let sol, _ = NP.prove ~delta:3 ~n:(G.n g') t' in
  check "proof valid" true (NP.is_valid ~delta:3 t' sol);
  check "uses a color claim" true
    (Array.exists (fun (h : NP.half_out) -> h.NP.color_claim <> None) sol.Labeling.b)

let test_ne_chain_proof_used () =
  (* find a corruption that triggers 2c/2d and verify chains appear *)
  let rng = Random.State.make [| 47 |] in
  let found = ref false in
  let attempts = ref 0 in
  while (not !found) && !attempts < 200 do
    incr attempts;
    let t = B.gadget ~delta:3 ~height:4 in
    let t' = Corrupt.apply rng Corrupt.Relabel_half t in
    let t' = L.with_truthful_flags t' in
    let has_2cd =
      List.exists
        (fun (v : C.violation) -> v.C.rule = "2c" || v.C.rule = "2d")
        (C.violations ~delta:3 t')
    in
    if has_2cd then begin
      found := true;
      let sol, _ = NP.prove ~delta:3 ~n:(G.n t'.L.graph) t' in
      check "chain proof valid" true (NP.is_valid ~delta:3 t' sol)
    end
  done;
  check "found a 2c/2d corruption" true !found

let test_corrupt_all_kinds_invalidate () =
  let rng = Random.State.make [| 53 |] in
  List.iter
    (fun kind ->
      (* most kinds invalidate immediately; a few may need a retry *)
      let rec try_once n =
        if n = 0 then false
        else begin
          let t = B.gadget ~delta:3 ~height:4 in
          let t' = Corrupt.apply rng kind t in
          (not (C.is_valid ~delta:3 t')) || try_once (n - 1)
        end
      in
      check (Format.asprintf "%a invalidates" Corrupt.pp_kind kind) true
        (try_once 10))
    Corrupt.all_kinds

(* [Check.node_bad] (the verifier's stop-at-first-violation path) and
   [node_violations] (the collecting path) drive one scan; they must
   agree on valid gadgets and on every corruption kind *)
let test_node_bad_matches_violations () =
  let agree name t =
    for u = 0 to G.n t.L.graph - 1 do
      check
        (Printf.sprintf "%s node %d" name u)
        (C.node_violations ~delta:3 t u <> [])
        (C.node_bad ~delta:3 t u)
    done
  in
  agree "valid h8" (B.gadget ~delta:3 ~height:8);
  let rng = Random.State.make [| 7 |] in
  for rep = 0 to 9 do
    List.iter
      (fun kind ->
        let t = B.gadget ~delta:3 ~height:4 in
        let t' = Corrupt.apply rng kind t in
        agree
          (Format.asprintf "rep %d %a" rep Corrupt.pp_kind kind)
          t')
      Corrupt.all_kinds
  done

let prop_corrupt_always_proved =
  QCheck.Test.make ~name:"every corruption admits a valid ne proof" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let t = B.gadget ~delta:3 ~height:3 in
      let t', _ = Corrupt.random rng t in
      let sol, _ = NP.prove ~delta:3 ~n:(G.n t'.L.graph) t' in
      NP.is_valid ~delta:3 t' sol)

let prop_verifier_matches_check =
  QCheck.Test.make ~name:"V says all-ok iff Check says valid" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let t = B.gadget ~delta:3 ~height:3 in
      let t' = if seed mod 3 = 0 then t else fst (Corrupt.random rng t) in
      let out, _ = V.run ~delta:3 ~n:(G.n t'.L.graph) t' in
      V.is_all_ok out = C.is_valid ~delta:3 t')

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_corrupt_always_proved; prop_verifier_matches_check ]

let suite =
  [
    ("sizes", `Quick, test_sizes);
    ("valid gadgets pass", `Quick, test_valid_gadgets_pass);
    ("ports exist", `Quick, test_ports_exist);
    ("center structure", `Quick, test_center_structure);
    ("diameter logarithmic", `Quick, test_diameter_logarithmic);
    ("input coloring valid", `Quick, test_input_coloring_valid);
    ("follow", `Quick, test_follow);
    ("rule 1a self-loop", `Quick, test_rule_1a_self_loop);
    ("rule 1b duplicate labels", `Quick, test_rule_1b_duplicate_labels);
    ("rule 1c wrong index", `Quick, test_rule_1c_wrong_index);
    ("rule 1d port mismatch", `Quick, test_rule_1d_port_mismatch);
    ("rule 2a left-right", `Quick, test_rule_2a_left_right);
    ("rule 2b parent-child", `Quick, test_rule_2b_parent_child);
    ("rule 2c broken square", `Quick, test_rule_2c_broken_square);
    ("rule 3e root shape", `Quick, test_rule_3e_root_shape);
    ("rule 3f single child", `Quick, test_rule_3f_single_child);
    ("rule 3h fake port", `Quick, test_rule_3h_fake_port);
    ("rule 3h dropped port", `Quick, test_rule_3h_dropped_port);
    ("rule c2a center degree", `Quick, test_rule_c2a_center_degree);
    ("rule c2d duplicate sub-gadget", `Quick, test_rule_c2d_duplicate_subgadget);
    ("rule fl stale flags", `Quick, test_rule_fl_stale_flags);
    ("Lemma 7 wraparound", `Quick, test_lemma7_wraparound);
    ("V ok on valid", `Quick, test_v_ok_on_valid);
    ("V radius grows", `Quick, test_v_radius_grows_with_size);
    ("V proofs on corruptions", `Quick, test_v_proofs_on_corruptions);
    ("Psi rejects naked error", `Quick, test_psi_rejects_naked_error);
    ("Psi rejects mixed ok", `Quick, test_psi_rejects_mixed_ok);
    ("Lemma 9 pointer attempts", `Quick, test_psi_lemma9_all_pointer_attempts);
    ("Lemma 9 exhaustive small", `Slow, test_psi_lemma9_exhaustive_small);
    ("ne valid gadgets", `Quick, test_ne_valid_gadgets);
    ("ne proofs on corruptions", `Quick, test_ne_proofs_on_corruptions);
    ("ne forged witness rejected", `Quick, test_ne_forged_witness_rejected);
    ("ne forged witness with mirrors", `Quick, test_ne_forged_witness_with_mirrors_rejected);
    ("ne forged chain rejected", `Quick, test_ne_forged_chain_rejected);
    ("ne parallel-edge color proof", `Quick, test_ne_parallel_edge_color_proof);
    ("ne chain proof used", `Quick, test_ne_chain_proof_used);
    ("corrupt kinds invalidate", `Quick, test_corrupt_all_kinds_invalidate);
    ("node_bad matches node_violations", `Quick, test_node_bad_matches_violations);
  ]
  @ qcheck_tests
