(* Differential and allocation tests for the Ψ_G / Π' constraint
   kernels and the Ψ_G prover. The library's kernels are closure-free
   loops on per-slot scratch views; Kernel_ref keeps the closure-based
   checks they replaced. Both must produce the same violation lists and
   the same distributed-checker verdicts on valid and corrupted outputs
   — Π² exercises the Ψ_G node sub-view and the family's [edge_ok],
   Π³ the nested case (its hypothetical node is checked by Π²'s
   kernel). The prover (node_bad,
   the verifier, the witness encoding) walks hoisted CSR arrays; its
   reference is the parent kernel kept in Kernel_ref, and the two must
   agree on solutions, meter radii and verifier counters. *)

module G = Repro_graph.Multigraph
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module DC = Repro_lcl.Distributed_check
module Instance = Repro_local.Instance
module Pool = Repro_local.Pool
module GL = Repro_gadget.Labels
module GB = Repro_gadget.Build
module NP = Repro_gadget.Ne_psi
module Family = Repro_gadget.Family
module Corrupt = Repro_gadget.Corrupt
module Psi = Repro_gadget.Psi
module Spec = Repro_padding.Spec
module PG = Repro_padding.Padded_graph
module PT = Repro_padding.Padded_types
module Pi = Repro_padding.Pi_prime
module H = Repro_padding.Hierarchy
module Adv = Repro_padding.Adversary
module Ref = Kernel_ref
module Check = Repro_gadget.Check
module V = Repro_gadget.Verifier
module Meter = Repro_local.Meter
module Obs = Repro_obs

let check = Alcotest.(check bool)

let so = H.sinkless_orientation
let pi2 = Pi.pad so
let pi3 = Pi.pad pi2

let ref_family delta =
  {
    (Family.log_family ~delta) with
    Family.ne_problem = Ref.Ne_psi_ref.problem ~delta;
  }

let ref2 = Ref.Pi_prime_ref.problem ~family:(ref_family (Pi.delta_of so)) so

(* the reference Π³ nests the reference Π² *)
let ref3 =
  Ref.Pi_prime_ref.problem
    ~family:(ref_family (Pi.delta_of pi2))
    { pi2 with Spec.problem = ref2 }

let show vs =
  String.concat "," (List.map (Format.asprintf "%a" Ne_lcl.pp_violation) vs)

(* true iff the output was rejected *)
let same_violations name p p_ref g ~input ~output =
  let got = Ne_lcl.violations p g ~input ~output in
  let want = Ne_lcl.violations p_ref g ~input ~output in
  Alcotest.(check string) name (show want) (show got);
  got <> []

(* ------------------------------------------------------------------ *)
(* output corruptions (each returns a modified copy)                   *)
(* ------------------------------------------------------------------ *)

let pick rng a = Random.State.int rng (Array.length a)

(* node [v] gets Ψ_G output [psi_v], and with [mirrors] so do the
   mirrors of its gadget halves *)
let set_psi out g v psi_v ~mirrors =
  let out = Labeling.copy out in
  out.Labeling.v.(v) <- { (out.Labeling.v.(v)) with PT.psi_v };
  if mirrors then
    G.iter_halves g v ~f:(fun h ->
        match out.Labeling.b.(h) with
        | Some ho -> out.Labeling.b.(h) <- Some { ho with NP.mirror = psi_v }
        | None -> ());
  out

let set_status out g v status ~mirrors =
  set_psi out g v { (out.Labeling.v.(v)).PT.psi_v with NP.status } ~mirrors

(* [v] (with [shared], every node sharing its Σ_list) gets [f] of its
   Σ_list *)
let replace_list out v ~shared f =
  let l = out.Labeling.v.(v).PT.list_part in
  Option.map
    (fun l' ->
      let out = Labeling.copy out in
      Array.iteri
        (fun u (o : _ PT.pv_out) ->
          if u = v || (shared && o.PT.list_part == l) then
            out.Labeling.v.(u) <- { o with PT.list_part = l' })
        out.Labeling.v;
      out)
    (f l)

let clear_s (l : _ PT.sigma_list) =
  let members = List.init (Array.length l.PT.s) Fun.id in
  Option.map
    (fun i ->
      let s = Array.copy l.PT.s in
      s.(i) <- false;
      { l with PT.s })
    (List.find_opt (fun i -> l.PT.s.(i)) members)

(* an in-range chain id, so both kernels evaluate it without raising *)
let tag = { NP.ccolor = 0; cpos = 0; ckind = NP.K2c }

let corruptions rng g out =
  let v = pick rng out.Labeling.v in
  (* a random half gets [f h] of its output *)
  let with_half f =
    let h = pick rng out.Labeling.b in
    let out = Labeling.copy out in
    out.Labeling.b.(h) <- f h out.Labeling.b.(h);
    Some out
  in
  (* [f] applied to a random gadget half's Ψ_G output *)
  let on_gadget_half f = with_half (fun _ -> Option.map f) in
  let flip_perr =
    let o = out.Labeling.v.(v) in
    let perr =
      match o.PT.perr with
      | PT.NoPortErr -> PT.PortErr1
      | PT.PortErr1 -> PT.PortErr2
      | PT.PortErr2 -> PT.NoPortErr
    in
    let out = Labeling.copy out in
    out.Labeling.v.(v) <- { o with PT.perr };
    out
  in
  let swap_eps =
    with_half (fun h -> function
      | Some _ -> None
      | None ->
        let mirror = out.Labeling.v.(G.half_node g h).PT.psi_v in
        Some
          {
            NP.mirror;
            bad_edge = false;
            color_claim = None;
            to_next = [];
            from_prev = [];
          })
  in
  (* a chain position on a witness node (and its mirrors) with no tags
     carrying it, preferably at a node that already justifies NWit *)
  let add_chain cpos =
    let nodes = List.init (Array.length out.Labeling.v) Fun.id in
    let w =
      Option.value ~default:v
        (List.find_opt
           (fun u -> out.Labeling.v.(u).PT.psi_v.NP.status = NP.NWit)
           nodes)
    in
    set_psi out g w
      { NP.status = NP.NWit; chains = [ { tag with NP.cpos } ] }
      ~mirrors:true
  in
  let ptr = NP.NPtr Psi.PParent in
  let status st ~mirrors = Some (set_status out g v st ~mirrors) in
  let unshared l = Some { l with PT.s = Array.copy l.PT.s } in
  let next_tag ho = { ho with NP.to_next = tag :: ho.NP.to_next } in
  let prev_tag ho =
    { ho with NP.from_prev = { tag with NP.cpos = 1 } :: ho.NP.from_prev }
  in
  let bad_mirror ho =
    { ho with NP.mirror = { NP.status = ptr; chains = [] } }
  in
  [
    ("flip perr", Some flip_perr);
    ("status NWit", status NP.NWit ~mirrors:false);
    ("status NWit + mirrors", status NP.NWit ~mirrors:true);
    ("status NPtr", status ptr ~mirrors:false);
    ("status NPtr + mirrors", status ptr ~mirrors:true);
    ("clear s bit", replace_list out v ~shared:true clear_s);
    ("clear s bit at one node", replace_list out v ~shared:false clear_s);
    (* structurally equal but unshared: still valid *)
    ("copy Σ_list", replace_list out v ~shared:false unshared);
    ("swap Some/None", swap_eps);
    ("replace mirror", on_gadget_half bad_mirror);
    ("add to_next tag", on_gadget_half next_tag);
    ("add from_prev tag", on_gadget_half prev_tag);
    ( "mark bad_edge",
      on_gadget_half (fun ho -> { ho with NP.bad_edge = true }) );
    ( "claim a color",
      on_gadget_half (fun ho -> { ho with NP.color_claim = Some 0 }) );
    ("add chain start at a witness", Some (add_chain 0));
    ("add chain middle at a witness", Some (add_chain 1));
  ]

(* Π³ only: corrupt the virtual Π² output inside a Σ_list, so the nested
   Π² kernel sees a bad hypothetical node *)
let corrupt_inner rng out =
  let flip (l : _ PT.sigma_list) =
    let ov : _ PT.pv_out = l.PT.ov in
    let perr =
      if ov.PT.perr = PT.PortErr2 then PT.NoPortErr else PT.PortErr2
    in
    Some { l with PT.ov = { ov with PT.perr } }
  in
  let v = pick rng out.Labeling.v in
  [ ("inner perr", replace_list out v ~shared:true flip) ]

(* ------------------------------------------------------------------ *)
(* the sweeps                                                          *)
(* ------------------------------------------------------------------ *)

(* the checker's accepts with the kernels equal its accepts with the
   closure-based reference kernels at every pool size and, with
   [node_centric], the node-centric reference checker's verdicts (an
   O(n·(n + m)) oracle, so Π² only) *)
let dcheck_agrees ~node_centric name p p_ref inst ~input ~output =
  let g = inst.Instance.graph in
  let verdicts =
    if node_centric then
      Some (Repro_fuzz.Reference.node_verdicts p g ~input ~output)
    else None
  in
  List.iter
    (fun k ->
      Pool.set_size k;
      let got = DC.run p inst ~input ~output in
      let want = DC.run p_ref inst ~input ~output in
      check (Printf.sprintf "%s: dcheck accepts at pool %d" name k) true
        (got.DC.accepts = want.DC.accepts);
      Option.iter
        (fun v ->
          check
            (Printf.sprintf "%s: node-centric verdicts at pool %d" name k)
            true (got.DC.accepts = v))
        verdicts)
    [ 1; 2; 4 ]

(* every solver output of every instance, and three rounds of every
   corruption of it; returns how many corrupted outputs were rejected *)
let sweep ~label ~node_centric spec p p_ref ~extra rng instances =
  let rejected = ref 0 in
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      List.iteri
        (fun k (g, input) ->
          let inst = Instance.create ~seed:k g in
          List.iter
            (fun (which, out) ->
              let name = Printf.sprintf "%s instance %d %s" label k which in
              check (name ^ " valid") false
                (same_violations name p p_ref g ~input ~output:out);
              dcheck_agrees ~node_centric name p p_ref inst ~input ~output:out;
              for r = 1 to 3 do
                List.iter
                  (fun (cname, bad) ->
                    let name = Printf.sprintf "%s / %s #%d" name cname r in
                    if same_violations name p p_ref g ~input ~output:bad then
                      incr rejected;
                    if r = 1 then
                      dcheck_agrees ~node_centric name p p_ref inst ~input
                        ~output:bad)
                  (List.filter_map
                     (fun (cname, o) -> Option.map (fun o -> (cname, o)) o)
                     (corruptions rng g out @ extra rng out))
              done)
            [
              ("det", fst (spec.Spec.solve_det inst input));
              ("rand", fst (spec.Spec.solve_rand inst input));
            ])
        instances);
  !rejected

(* a padded instance of [base] with [corrupt] invalid gadgets *)
let adversarial base rng ~base_target ~gadget_target corrupt =
  let pg, inp, _ =
    Adv.padded_with_corruption base rng ~base_target ~gadget_target ~corrupt
  in
  (pg.PG.padded, inp)

let test_pi2_matches_reference () =
  let rng = Random.State.make [| 12 |] in
  let hard = pi2.Spec.hard_instance rng ~target:150 in
  let adv =
    List.map (adversarial so rng ~base_target:8 ~gadget_target:30) [ 2; 5 ]
  in
  let rejected =
    sweep ~label:"pi2" ~node_centric:true pi2 pi2.Spec.problem ref2
      ~extra:(fun _ _ -> [])
      rng (hard :: adv)
  in
  check "corruptions were caught" true (rejected > 0)

let test_pi3_matches_reference () =
  let rng = Random.State.make [| 13 |] in
  let hard = pi3.Spec.hard_instance rng ~target:60 in
  let adv = adversarial pi2 rng ~base_target:30 ~gadget_target:12 2 in
  let rejected =
    sweep ~label:"pi3" ~node_centric:false pi3 pi3.Spec.problem ref3
      ~extra:corrupt_inner
      rng [ hard; adv ]
  in
  check "corruptions were caught" true (rejected > 0)

(* Ψ_G alone, on proofs of corrupted gadgets: the prover's witnesses
   (pointers, bad-edge marks, color claims, chains) drive the kernels'
   witness paths *)
let test_psi_matches_reference () =
  let delta = 3 in
  let p = NP.problem ~delta and p_ref = Ref.Ne_psi_ref.problem ~delta in
  let rng = Random.State.make [| 14 |] in
  let base = GB.gadget ~delta ~height:4 in
  let saw_chain = ref false and saw_ptr = ref false and saw_wit = ref false in
  List.iter
    (fun kind ->
      for r = 1 to 4 do
        let t = Corrupt.apply rng kind base in
        let g = t.GL.graph in
        let sol, _ = NP.prove ~delta ~n:(G.n g) t in
        Array.iter
          (fun (o : NP.node_out) ->
            if o.NP.chains <> [] then saw_chain := true;
            match o.NP.status with
            | NP.NPtr _ -> saw_ptr := true
            | NP.NWit -> saw_wit := true
            | NP.NOk -> ())
          sol.Labeling.v;
        let name = Format.asprintf "psi %a #%d" Corrupt.pp_kind kind r in
        let input = NP.input_of t in
        ignore (same_violations name p p_ref g ~input ~output:sol);
        (* and with one node's witness status dropped *)
        let bad = Labeling.copy sol in
        let v = pick rng bad.Labeling.v in
        bad.Labeling.v.(v) <- { (bad.Labeling.v.(v)) with NP.status = NP.NOk };
        ignore (same_violations (name ^ " / NOk") p p_ref g ~input ~output:bad)
      done)
    Corrupt.all_kinds;
  check "proofs carried pointers" true !saw_ptr;
  check "proofs carried witnesses" true !saw_wit;
  check "proofs carried chains" true !saw_chain

(* ------------------------------------------------------------------ *)
(* allocation guard                                                    *)
(* ------------------------------------------------------------------ *)

(* A full check of a Π² output allocates O(slots · max_degree) words,
   not O(n + m): the centralized check and the one-round distributed
   check each stay under 32 minor words per node (the closure-based
   kernels took about 320 and 190). The centralized checks, Π²'s and
   sinkless orientation's own, allocate nothing per node at all: under
   1 word per node. (SO's node predicate took 6 through [Array.exists]'s
   closure, on every SO node and on every hypothetical node of Π².) *)
let test_check_allocation () =
  let rng = Random.State.make [| 15 |] in
  let g, input = pi2.Spec.hard_instance rng ~target:3_000 in
  let inst = Instance.create ~seed:1 g in
  let out, _ = pi2.Spec.solve_det inst input in
  (* words per node of [g], on the second of two runs: the first makes
     the scratch views *)
  let words g f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    let r = f () in
    ((Gc.minor_words () -. w0) /. float_of_int (G.n g), r)
  in
  let bounded what w =
    check (Printf.sprintf "%s allocates %.1f words/node (<= 32)" what w) true
      (w <= 32.)
  in
  let per_node_free what w =
    check (Printf.sprintf "%s allocates %.3f words/node (< 1)" what w) true
      (w < 1.)
  in
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 1;
      let w, ok = words g (fun () -> Spec.is_valid pi2 g ~input ~output:out) in
      check "valid" true ok;
      bounded "is_valid" w;
      per_node_free "Π² is_valid" w;
      let w, v =
        words g (fun () -> DC.run pi2.Spec.problem inst ~input ~output:out)
      in
      check "dcheck accepts" true v.DC.all_accept;
      bounded "dcheck" w;
      per_node_free "Π² dcheck" w;
      let g3, input3 = pi3.Spec.hard_instance rng ~target:3_000 in
      let out3, _ = pi3.Spec.solve_det (Instance.create ~seed:1 g3) input3 in
      let w, ok =
        words g3 (fun () -> Spec.is_valid pi3 g3 ~input:input3 ~output:out3)
      in
      check "Π³ valid" true ok;
      per_node_free "Π³ is_valid" w;
      let sg, sinput = so.Spec.hard_instance rng ~target:19_000 in
      let sout, _ = so.Spec.solve_det (Instance.create ~seed:1 sg) sinput in
      let w, vs =
        words sg (fun () ->
            Ne_lcl.violations so.Spec.problem sg ~input:sinput ~output:sout)
      in
      check "SO output valid" true (vs = []);
      per_node_free "SO violations" w)

(* ------------------------------------------------------------------ *)
(* the prover against its reference                                   *)
(* ------------------------------------------------------------------ *)

let radii m n = Array.init n (Meter.radius m)

(* [f ()] with the registry enabled, and the gadget.verifier.* counter
   totals it added *)
let counted f =
  Obs.Registry.enable ();
  let base = Obs.Registry.counters () in
  let r = Fun.protect ~finally:(fun () -> Obs.Registry.disable ()) f in
  let prefix = "gadget.verifier." in
  let np = String.length prefix in
  ( r,
    List.filter
      (fun (name, _) ->
        String.length name > np && String.sub name 0 np = prefix)
      (Obs.Registry.deltas base) )

let show_counters cs =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)

(* the prover and its reference agree on [t] at pool sizes 1, 2 and 4 *)
let prover_agrees name ~delta (t : GL.t) =
  let n = G.n t.GL.graph in
  let n_promise = max n 2000 in
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      List.iter
        (fun k ->
          Pool.set_size k;
          let name = Printf.sprintf "%s at pool %d" name k in
          check (name ^ ": erring nodes") true
            (Check.erring_nodes ~delta t = Ref.Check_ref.erring_nodes ~delta t);
          let (out, m), c = counted (fun () -> V.run ~delta ~n:n_promise t) in
          let (out', m'), c' =
            counted (fun () -> Ref.Verifier_ref.run ~delta ~n:n_promise t)
          in
          check (name ^ ": verifier outputs") true (out = out');
          check (name ^ ": verifier radii") true (radii m n = radii m' n);
          Alcotest.(check string)
            (name ^ ": verifier counters") (show_counters c') (show_counters c);
          let (sol, m), c =
            counted (fun () -> NP.prove ~delta ~n:n_promise t)
          in
          let (sol', m'), c' =
            counted (fun () -> Ref.Prove_ref.prove ~delta ~n:n_promise t)
          in
          check (name ^ ": solutions") true (sol = sol');
          check (name ^ ": prove radii") true (radii m n = radii m' n);
          Alcotest.(check string)
            (name ^ ": prove counters") (show_counters c') (show_counters c))
        [ 1; 2; 4 ])

let test_prover_matches_reference () =
  let delta = 3 in
  for height = 2 to 8 do
    prover_agrees
      (Printf.sprintf "valid h=%d" height)
      ~delta (GB.gadget ~delta ~height)
  done;
  let rng = Random.State.make [| 16 |] in
  let saw_error = ref false in
  List.iter
    (fun height ->
      let base = GB.gadget ~delta ~height in
      List.iter
        (fun kind ->
          for r = 1 to 3 do
            let t = Corrupt.apply rng kind base in
            if not (V.is_all_ok (fst (V.run ~delta ~n:(G.n t.GL.graph) t)))
            then saw_error := true;
            prover_agrees
              (Format.asprintf "%a h=%d #%d" Corrupt.pp_kind kind height r)
              ~delta t
          done)
        Corrupt.all_kinds)
    [ 3; 5 ];
  check "corruptions produced error proofs" true !saw_error

(* the disjoint union of labeled gadgets: node and half ids shift by the
   sizes of the gadgets before, so ports keep their order *)
let disjoint_union (ts : GL.t list) =
  let n = List.fold_left (fun acc (t : GL.t) -> acc + G.n t.GL.graph) 0 ts in
  let m = List.fold_left (fun acc (t : GL.t) -> acc + G.m t.GL.graph) 0 ts in
  let half_node = Array.make (2 * m) 0 in
  let node_off = ref 0 and half_off = ref 0 in
  List.iter
    (fun (t : GL.t) ->
      let g = t.GL.graph in
      for h = 0 to (2 * G.m g) - 1 do
        half_node.(!half_off + h) <- !node_off + G.half_node g h
      done;
      node_off := !node_off + G.n g;
      half_off := !half_off + (2 * G.m g))
    ts;
  let cat f = Array.concat (List.map f ts) in
  {
    GL.graph = G.of_half_node ~n ~m half_node;
    nodes = cat (fun t -> t.GL.nodes);
    halves = cat (fun t -> t.GL.halves);
    half_color2 = cat (fun t -> t.GL.half_color2);
    half_flags = cat (fun t -> t.GL.half_flags);
  }

(* words allocated by [f ()], minor and direct-major: [Gc.minor_words]
   is exact, and major words that were not promoted went straight to the
   major heap (arrays over the minor-heap size limit) *)
let allocated_words f =
  let w0 = Gc.minor_words () and _, p0, m0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let w1 = Gc.minor_words () and _, p1, m1 = Gc.counters () in
  w1 -. w0 +. (m1 -. m0) -. (p1 -. p0)

(* the verifier handles k components in time and space linear in the
   union: each component's double sweep stays inside the component *)
let test_verifier_linear_in_components () =
  let delta = 3 in
  let rng = Random.State.make [| 17 |] in
  let valid = GB.gadget ~delta ~height:3 in
  let parts =
    List.init 6 (fun i ->
        if i mod 2 = 0 then valid
        else Corrupt.apply rng (List.nth Corrupt.all_kinds i) valid)
  in
  let u = disjoint_union parts in
  let n_promise = 5000 in
  let out, m = V.run ~delta ~n:n_promise u in
  let want_out, want_radii =
    List.split
      (List.map
         (fun (t : GL.t) ->
           let o, m = V.run ~delta ~n:n_promise t in
           (o, radii m (G.n t.GL.graph)))
         parts)
  in
  check "union outputs are the parts' outputs" true
    (out = Array.concat want_out);
  check "union radii are the parts' radii" true
    (radii m (G.n u.GL.graph) = Array.concat want_radii);
  (* allocation: k copies cost at most 1.5x k times one copy *)
  let k = 32 in
  let many = disjoint_union (List.init k (fun _ -> valid)) in
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 1;
      let one = allocated_words (fun () -> V.run ~delta ~n:n_promise valid) in
      let all = allocated_words (fun () -> V.run ~delta ~n:n_promise many) in
      check
        (Printf.sprintf "%d components: %.0f words <= 1.5 x %d x %.0f" k all k
           one)
        true
        (all <= 1.5 *. float_of_int k *. one))

(* proving a valid gadget allocates a few words per node: the verifier's
   node-sized arrays and the solution's, with one shared node and half
   output (the parent prover took about 30) *)
let test_prove_allocation () =
  let delta = 3 in
  let t = GB.gadget ~delta ~height:6 in
  let n = G.n t.GL.graph in
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 1;
      ignore (NP.prove ~delta ~n t);
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (NP.prove ~delta ~n t));
      let w = (Gc.minor_words () -. w0) /. float_of_int n in
      check (Printf.sprintf "prove allocates %.1f minor words/node (<= 12)" w)
        true (w <= 12.))

(* the padded input labeling of the Π² hard instance at target 10^4
   allocates its three arrays and the labels of one gadget copy: every
   later copy shares the first one's records (a fresh record per label
   came to 11.2 words per padded half) *)
let test_input_labeling_allocation () =
  let pg, _ =
    Pi.hard_instance_parts so (Random.State.make [| 1 |]) ~base_target:100
      ~gadget_target:100
  in
  let base_input = Labeling.const pg.PG.base ~v:() ~e:() ~b:() in
  let label () =
    PG.input_labeling pg ~base_input ~dei:so.Spec.dei ~dbi:so.Spec.dbi
  in
  ignore (label ());
  let halves = 2 * G.m pg.PG.padded in
  let w = allocated_words label /. float_of_int halves in
  check
    (Printf.sprintf "input_labeling allocates %.2f words per padded half (< 2)"
       w)
    true (w < 2.)

(* ------------------------------------------------------------------ *)
(* interning in Lemma 4's solver                                       *)
(* ------------------------------------------------------------------ *)

(* A padded instance's gadget components are exactly its base nodes'
   gadgets, numbered as in the gadget, so proving each gadget on its own
   gives what the solver must output on its component: the node and half
   outputs exactly, and the meter radius too where no Lemma-4 overhead
   applies (gadgets with an erring node). Elsewhere the radius is the
   overhead combined with the Ψ_G radius, so it is at least the latter. *)
let pi2_family = Family.log_family ~delta:(Pi.delta_of so)

let is_all_nok (sol : NP.solution) =
  Array.for_all
    (fun (o : NP.node_out) ->
      match o.NP.status with NP.NOk -> true | NP.NPtr _ | NP.NWit -> false)
    sol.Labeling.v

let matches_separate_proofs name (pg : PG.t) inst
    ((out : (_, unit, PT.pb_out) Labeling.t), meter) =
  let g = pg.PG.padded in
  let proofs =
    Array.init (G.n pg.PG.base) (fun bv ->
        pi2_family.Family.prove ~n:inst.Instance.n_promise (pg.PG.gadget_of bv))
  in
  let nodes_ok = ref true and radii_ok = ref true and halves_ok = ref true in
  for v = 0 to G.n g - 1 do
    let bv = pg.PG.base_node_of.(v) in
    let sol, m = proofs.(bv) in
    let l = v - pg.PG.node_offset.(bv) in
    if out.Labeling.v.(v).PT.psi_v <> sol.Labeling.v.(l) then nodes_ok := false;
    let r = Meter.radius meter v and want = max 2 (Meter.radius m l) in
    if (if is_all_nok sol then r < want else r <> want) then radii_ok := false
  done;
  for ph = 0 to (2 * G.m g) - 1 do
    let gh = pg.PG.half_gad.(ph) in
    let want =
      if gh < 0 then None
      else
        let bv = pg.PG.base_node_of.(G.half_node g ph) in
        Some (fst proofs.(bv)).Labeling.b.(gh)
    in
    if out.Labeling.b.(ph) <> want then halves_ok := false
  done;
  check (name ^ ": node outputs") true !nodes_ok;
  check (name ^ ": half outputs") true !halves_ok;
  check (name ^ ": meter radii") true !radii_ok

(* the gadget.verifier.runs delta of [f ()] *)
let proofs_run f =
  let r, c = counted f in
  (r, Option.value ~default:0 (List.assoc_opt "gadget.verifier.runs" c))

(* how many distinct gadgets the base nodes of [pg] carry *)
let distinct_gadgets (pg : PG.t) =
  let seen = ref [] in
  for bv = 0 to G.n pg.PG.base - 1 do
    let t = pg.PG.gadget_of bv in
    if not (List.mem t !seen) then seen := t :: !seen
  done;
  List.length !seen

(* both solvers on [pg]: outputs as if every component were proved on
   its own, and one proof per distinct component *)
let solves_as_separate name (pg : PG.t) input =
  let inst = Instance.create ~seed:3 pg.PG.padded in
  let distinct = distinct_gadgets pg in
  List.iter
    (fun (which, solve) ->
      let name = name ^ " " ^ which in
      let r, runs = proofs_run (fun () -> solve inst input) in
      matches_separate_proofs name pg inst r;
      Alcotest.(check int) (name ^ ": proofs run") distinct runs;
      check (name ^ ": valid") true
        (Spec.is_valid pi2 pg.PG.padded ~input ~output:(fst r)))
    [ ("det", pi2.Spec.solve_det); ("rand", pi2.Spec.solve_rand) ]

let test_interning_matches_separate_proofs () =
  let rng = Random.State.make [| 18 |] in
  List.iter
    (fun corrupt ->
      let pg, input, _ =
        Adv.padded_with_corruption so rng ~base_target:20 ~gadget_target:30
          ~corrupt
      in
      check "clean and corrupted copies mix" true
        (distinct_gadgets pg > 1 && distinct_gadgets pg <= corrupt + 1);
      solves_as_separate (Printf.sprintf "%d corrupted" corrupt) pg input)
    [ 1; 4; 9 ]

let test_interning_one_proof_on_hard () =
  let rng = Random.State.make [| 19 |] in
  let pg, input =
    Pi.hard_instance_parts so rng ~base_target:30 ~gadget_target:60
  in
  check "one gadget" true (distinct_gadgets pg = 1);
  solves_as_separate "hard" pg input

(* Two copies that differ in one half's color or flags only must both
   be proved. The half is an inner one of the gadget's, away from the
   ends of the local form. *)
let test_interning_tells_labels_apart () =
  let rng = Random.State.make [| 20 |] in
  let delta = Pi.delta_of so in
  let good = GB.gadget ~delta ~height:(GB.height_for ~delta ~target:40) in
  let h = 2 * (G.m good.GL.graph / 2) in
  let recolored =
    let c = Array.copy good.GL.half_color2 in
    c.(h) <- c.(h) + 1;
    { good with GL.half_color2 = c }
  in
  let reflagged =
    let f = Array.copy good.GL.half_flags in
    f.(h) <- { (f.(h)) with GL.f_right = not f.(h).GL.f_right };
    { good with GL.half_flags = f }
  in
  let base_g, base_in = so.Spec.hard_instance rng ~target:12 in
  List.iter
    (fun (name, other) ->
      let pg =
        PG.build base_g ~delta ~gadget_for:(fun bv ->
            if bv = 0 then other else good)
      in
      let input =
        PG.input_labeling pg ~base_input:base_in ~dei:so.Spec.dei
          ~dbi:so.Spec.dbi
      in
      check (name ^ ": two distinct gadgets") true (distinct_gadgets pg = 2);
      solves_as_separate name pg input)
    [ ("bcolor", recolored); ("bflags", reflagged) ]

let suite =
  [
    ("psi kernels match reference", `Quick, test_psi_matches_reference);
    ("pi2 kernels match reference", `Quick, test_pi2_matches_reference);
    ("pi3 kernels match reference", `Quick, test_pi3_matches_reference);
    ("check allocation per node", `Quick, test_check_allocation);
    ("prover matches reference", `Quick, test_prover_matches_reference);
    ( "verifier linear in components",
      `Quick,
      test_verifier_linear_in_components );
    ("prove allocation per node", `Quick, test_prove_allocation);
    ( "input labeling allocation per half",
      `Quick,
      test_input_labeling_allocation );
    ( "interning matches separate proofs",
      `Quick,
      test_interning_matches_separate_proofs );
    ( "interning proves a hard instance once",
      `Quick,
      test_interning_one_proof_on_hard );
    ("interning tells labels apart", `Quick, test_interning_tells_labels_apart);
  ]
