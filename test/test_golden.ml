(* Π² output golden: the Lemma-4 solver's outputs and meter radii on
   hard instances, pinned as digests of a canonical text rendering.
   Marshal would not do: it records physical sharing, and the prover is
   free to share equal records (one clean half per gadget, one NOk node
   output) or not. The rendering below only sees structure. *)

module G = Repro_graph.Multigraph
module Labeling = Repro_lcl.Labeling
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module SO = Repro_problems.Sinkless_orientation
module NP = Repro_gadget.Ne_psi
module Psi = Repro_gadget.Psi
module Spec = Repro_padding.Spec
module PT = Repro_padding.Padded_types
module Pi = Repro_padding.Pi_prime
module H = Repro_padding.Hierarchy
module PG = Repro_padding.Padded_graph
module Adv = Repro_padding.Adversary
module GB = Repro_gadget.Build
module GC = Repro_gadget.Check
module Corrupt = Repro_gadget.Corrupt

let pi2 = Pi.pad H.sinkless_orientation

let add = Buffer.add_string

let pointer = function
  | Psi.PRight -> "R"
  | Psi.PLeft -> "L"
  | Psi.PParent -> "P"
  | Psi.PRChild -> "C"
  | Psi.PUp -> "U"
  | Psi.PDown i -> Printf.sprintf "D%d" i

let chains buf l =
  List.iter
    (fun (c : NP.chain_id) ->
      add buf
        (Printf.sprintf "(%d,%d,%s)" c.NP.ccolor c.NP.cpos
           (match c.NP.ckind with NP.K2c -> "2c" | NP.K2d -> "2d")))
    l;
  add buf ";"

let node_out buf (o : NP.node_out) =
  add buf
    (match o.NP.status with
    | NP.NOk -> "ok"
    | NP.NWit -> "wit"
    | NP.NPtr p -> "ptr" ^ pointer p);
  chains buf o.NP.chains

let orientation = function SO.In -> "i" | SO.Out -> "o"

let bools a =
  String.concat ""
    (Array.to_list (Array.map (fun b -> if b then "1" else "0") a))

let render (out : (_, unit, PT.pb_out) Labeling.t) meter =
  let buf = Buffer.create 65536 in
  Array.iteri
    (fun v (o : (unit, unit, unit, unit, unit, SO.orientation) PT.pv_out) ->
      let l = o.PT.list_part in
      add buf
        (Printf.sprintf "v%d r%d %s s%s ob%s " v (Meter.radius meter v)
           (Format.asprintf "%a" PT.pp_port_err o.PT.perr)
           (bools l.PT.s)
           (String.concat "" (Array.to_list (Array.map orientation l.PT.ob))));
      node_out buf o.PT.psi_v;
      add buf "\n")
    out.Labeling.v;
  Array.iteri
    (fun h (b : PT.pb_out) ->
      add buf (Printf.sprintf "h%d " h);
      (match b with
      | None -> add buf "eps"
      | Some ho ->
        node_out buf ho.NP.mirror;
        add buf (if ho.NP.bad_edge then "bad " else "- ");
        (match ho.NP.color_claim with
        | None -> add buf "- "
        | Some c -> add buf (Printf.sprintf "c%d " c));
        chains buf ho.NP.to_next;
        chains buf ho.NP.from_prev);
      add buf "\n")
    out.Labeling.b;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* digests of the parent solver's outputs, before its prover shared
   clean outputs: hard instances at target 3000, seeds 1-3, and one
   padded instance with five corrupted gadgets, so that pointers,
   witnesses and chains are pinned too *)
let golden =
  [
    ("seed 1 det", "bea980c82bf36b5d012f3dd49fe81229");
    ("seed 1 rand", "643fb19b9b1064c349c286f4ff18122f");
    ("seed 2 det", "e0e67ffa7f747bd0508e8cbc259aba62");
    ("seed 2 rand", "df756796601d6948d3084b9ff00310d3");
    ("seed 3 det", "9816e3ad02fd83f1b7cc33787f706b2e");
    ("seed 3 rand", "a1f14b4a0491f5de60cb6c8adc05fdae");
    ("adversarial det", "bf0a53e66719f1661269eb834bf07842");
    ("adversarial rand", "c3b0fbc23245c4ea5e8bdd331c41f3f9");
  ]

let instances () =
  let hard seed =
    let g, input =
      pi2.Spec.hard_instance (Random.State.make [| seed |]) ~target:3000
    in
    (Printf.sprintf "seed %d" seed, Instance.create ~seed g, input)
  in
  let adversarial =
    let pg, input, _ =
      Adv.padded_with_corruption H.sinkless_orientation
        (Random.State.make [| 4 |])
        ~base_target:30 ~gadget_target:60 ~corrupt:5
    in
    ("adversarial", Instance.create ~seed:4 pg.PG.padded, input)
  in
  [ hard 1; hard 2; hard 3; adversarial ]

(* Padded instances whose components do not all share one form, built
   with [Padded_graph.build ~gadget_for]: base nodes alternating between
   gadgets of heights 3 and 4, so consecutive components never match the
   last representative; and every base node with a gadget of its own, a
   fresh build (equal in structure, apart in memory) or, at every third
   node, a corrupted one. Their digests were computed with the solver
   that hashed every component. *)
let mixed_golden =
  [
    ("alternating det", "ab65533269eeefd6217abcb1a92111a6");
    ("alternating rand", "78f850acab1762f5611fa5f2b4667d40");
    ("own gadgets det", "023e271ee026c0b1ad75e22e20f5f53a");
    ("own gadgets rand", "470df713c434bb8c516b70c9391b800b");
  ]

let mixed_instances () =
  let so = H.sinkless_orientation in
  let delta = Pi.delta_of so in
  let padded seed gadget_for =
    let rng = Random.State.make [| seed |] in
    let base_g, base_in = so.Spec.hard_instance rng ~target:40 in
    let pg = PG.build base_g ~delta ~gadget_for:(gadget_for rng) in
    let input =
      PG.input_labeling pg ~base_input:base_in ~dei:so.Spec.dei
        ~dbi:so.Spec.dbi
    in
    (Instance.create ~seed pg.PG.padded, input)
  in
  let alternating =
    let a = GB.gadget ~delta ~height:3 and b = GB.gadget ~delta ~height:4 in
    padded 5 (fun _ v -> if v mod 2 = 0 then a else b)
  in
  let own =
    padded 6 (fun rng v ->
        let g = GB.gadget ~delta ~height:3 in
        if v mod 3 = 0 then Adv.corrupt_one rng g else g)
  in
  let name s (inst, input) = (s, inst, input) in
  [ name "alternating" alternating; name "own gadgets" own ]

let test_pi2_golden () =
  Alcotest.(check string)
    "the golden is Hierarchy.level 2" pi2.Spec.name
    (Spec.packed_name (H.level 2));
  List.iter
    (fun (name, inst, input) ->
      List.iter
        (fun (which, solve) ->
          let out, meter = solve inst input in
          if name = "adversarial" then begin
            let has st =
              Array.exists
                (fun (o : _ PT.pv_out) -> st o.PT.psi_v.NP.status)
                out.Labeling.v
            in
            Alcotest.(check bool)
              "adversarial proof has witnesses and pointers" true
              (has (function NP.NWit -> true | _ -> false)
              && has (function NP.NPtr _ -> true | _ -> false))
          end;
          let name = name ^ " " ^ which in
          Alcotest.(check string)
            name (List.assoc name (golden @ mixed_golden)) (render out meter))
        [ ("det", pi2.Spec.solve_det); ("rand", pi2.Spec.solve_rand) ])
    (instances () @ mixed_instances ())

(* Padded-input golden: [Padded_graph.input_labeling] on the Π² hard
   instances and the adversarial instance above (five distinct corrupted
   gadgets among clean copies) and on one Π³ hard instance, rendered as
   text like the outputs above, so that sharing records between gadget
   copies cannot move the digests. They were computed with the code that
   allocated fresh records for every copy. *)
module GL = Repro_gadget.Labels

let pi3 = Pi.pad pi2

let gad_v buf (l : GL.node_label) =
  add buf
    (Printf.sprintf "%s %s k%d"
       (match l.GL.kind with
       | GL.Center -> "c"
       | GL.Index i -> Printf.sprintf "i%d" i)
       (match l.GL.port with None -> "-" | Some i -> Printf.sprintf "p%d" i)
       l.GL.color2)

let gad_b buf (b : NP.half_in) =
  add buf
    (Format.asprintf "%a k%d %s" GL.pp_half_label b.NP.bl b.NP.bcolor
       (bools
          [| b.NP.bflags.GL.f_right; b.NP.bflags.GL.f_left; b.NP.bflags.GL.f_child |]))

(* renderers of one padding level around the renderer of the level below *)
let pv inner buf (x : _ PT.pv_in) =
  add buf "{";
  inner buf x.PT.pi_v;
  add buf " ";
  gad_v buf x.PT.gad_v;
  add buf "}"

let pe inner buf (x : _ PT.pe_in) =
  add buf "{";
  inner buf x.PT.pi_e;
  add buf (match x.PT.etype with PT.GadEdge -> " gad}" | PT.PortEdge -> " port}")

let pb inner buf (x : _ PT.pb_in) =
  add buf "{";
  inner buf x.PT.pi_b;
  add buf " ";
  gad_b buf x.PT.gad_b;
  add buf "}"

let unit_ buf () = add buf "()"

(* each half is rendered with its node, so that the port halves pin
   which port of which gadget copy every base edge attaches to *)
let render_input g ~v ~e ~b (inp : _ Labeling.t) =
  let buf = Buffer.create 65536 in
  let section tag f a =
    Array.iteri
      (fun i x ->
        add buf (tag i);
        f buf x;
        add buf "\n")
      a
  in
  section (Printf.sprintf "v%d ") v inp.Labeling.v;
  section (Printf.sprintf "e%d ") e inp.Labeling.e;
  section (fun h -> Printf.sprintf "h%d@%d " h (G.half_node g h)) b
    inp.Labeling.b;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let input_golden =
  [
    ("seed 1", "f838d5007254e70e6828a065fea1d073");
    ("seed 2", "0916e52030aa42193ec940fd8ef93282");
    ("seed 3", "2b29b40d3c4c1e9008545e04973e46af");
    ("adversarial", "c8c6c7d183f08dad4eecec6064233852");
    ("pi3 n6080", "17aab7aa9cf75191300a8bb21408018a");
  ]

let test_padded_input_golden () =
  let g3, input3 =
    pi3.Spec.hard_instance (Random.State.make [| 1 |]) ~target:3000
  in
  let got =
    List.map
      (fun (name, inst, input) ->
        ( name,
          render_input inst.Instance.graph ~v:(pv unit_) ~e:(pe unit_)
            ~b:(pb unit_) input ))
      (instances ())
    @ [
        ( Printf.sprintf "pi3 n%d" (G.n g3),
          render_input g3 ~v:(pv (pv unit_)) ~e:(pe (pe unit_))
            ~b:(pb (pb unit_)) input3 );
      ]
  in
  List.iter
    (fun (name, d) ->
      Alcotest.(check string)
        ("padded input " ^ name) (List.assoc name input_golden) d)
    got;
  (* every copy of the one gadget holds the first copy's gadget-half
     input records, not equal ones of its own *)
  let pg, input =
    Pi.hard_instance_parts H.sinkless_orientation
      (Random.State.make [| 1 |])
      ~base_target:30 ~gadget_target:60
  in
  let first = Hashtbl.create 256 in
  let shared = ref 0 and apart = ref 0 in
  Array.iteri
    (fun ph gh ->
      if gh >= 0 then
        let b = input.Labeling.b.(ph) in
        match Hashtbl.find_opt first gh with
        | None -> Hashtbl.add first gh b
        | Some b0 -> if b0 == b then incr shared else incr apart)
    pg.PG.half_gad;
  Alcotest.(check (pair int bool))
    "gadget-half inputs of later copies: none apart, some shared" (0, true)
    (!apart, !shared > 0)

(* [Check.violations] golden: the nodes, rules, order and multiplicity
   of the gadget checker's report on a fixed-seed corruption corpus
   (every kind, Δ = 3, heights 3-5, three draws each), pinned as the
   digest of its [pp_violation] rendering *)
let violations_golden = "0773511923787f62b13618b8cd8227ff"

let test_violations_golden () =
  let rng = Random.State.make [| 20 |] in
  let buf = Buffer.create 65536 in
  List.iter
    (fun kind ->
      for height = 3 to 5 do
        for draw = 0 to 2 do
          let t = Corrupt.apply rng kind (GB.gadget ~delta:3 ~height) in
          add buf
            (Format.asprintf "%a h%d #%d\n" Corrupt.pp_kind kind height draw);
          List.iter
            (fun v -> add buf (Format.asprintf "%a\n" GC.pp_violation v))
            (GC.violations ~delta:3 t)
        done
      done)
    Corrupt.all_kinds;
  Alcotest.(check string)
    "violations digest" violations_golden
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ne-LCL check golden: the rendered [Ne_lcl.violations] list (its
   order and multiplicity) and the [Distributed_check.run] accept array
   of every case of a fixed-seed corpus, pinned as one digest. The
   corpus is sinkless orientation, colouring, MIS and matching labelings
   ({!Repro_fuzz.Gen_labeling}) on multigraphs with self-loops and
   parallel edges, plus Π² outputs with swapped node labels, halves
   marked as bad edges and flipped port-error flags. The digest was
   computed with the two hand-written sweeps that [Ne_lcl.sweep]
   replaced. *)
module Ne_lcl = Repro_lcl.Ne_lcl
module DC = Repro_lcl.Distributed_check
module GG = Repro_fuzz.Gen_graph
module GLab = Repro_fuzz.Gen_labeling

let check_golden = "4613b83624a146aa99617e40e20a100b"

let render_check buf name p g ~input ~output =
  add buf (name ^ "\n");
  List.iter
    (fun v -> add buf (Format.asprintf "%a\n" Ne_lcl.pp_violation v))
    (Ne_lcl.violations p g ~input ~output);
  let v = DC.run p (Instance.create g) ~input ~output in
  add buf (bools v.DC.accepts ^ "\n")

let multigraph rng =
  let r_n = 1 + Random.State.int rng 30 in
  (* [Array.init] applies its function in index order, so the draws
     are sequenced; one proposal in eight is a self-loop *)
  let r_edges =
    Array.to_list
      (Array.init (2 * r_n) (fun _ ->
           let u = Random.State.int rng r_n in
           let loop = Random.State.int rng 8 = 0 in
           (u, if loop then u else Random.State.int rng r_n)))
  in
  GG.to_graph
    {
      GG.r_n;
      r_max_deg = 1 + Random.State.int rng 4;
      r_shape = GG.Any;
      r_edges;
    }

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* The Π³ part of the corpus: det and rand outputs of one Π³ hard
   instance, clean and with 1, 4 and 9 corrupted nodes. The corruptions
   cycle through the three padding levels: every orientation of the
   virtual SO node inside the virtual Π² node's Σ_list turned inward, a
   port node's own port-error flag, and the virtual Π² node's flag. So
   the nested Π³ → Π² → SO constraint checks are pinned too. The digest
   was computed with the checker that copied every label into scratch
   views. *)
let check_golden_pi3 = "f4a861c1f6b874ae2b285663f2ede29e"

let next_perr = function
  | PT.NoPortErr -> PT.PortErr1
  | PT.PortErr1 -> PT.PortErr2
  | PT.PortErr2 -> PT.NoPortErr

let corrupt_pi3 rng ~(input : (_ PT.pv_in, _, _) Labeling.t) out k =
  let c = Labeling.copy out in
  let n = Array.length c.Labeling.v in
  let rec port_node () =
    let v = Random.State.int rng n in
    if input.Labeling.v.(v).PT.gad_v.GL.port <> None then v else port_node ()
  in
  for i = 0 to k - 1 do
    let v = if i mod 3 = 1 then port_node () else Random.State.int rng n in
    let o = c.Labeling.v.(v) in
    let l = o.PT.list_part in
    let ov = l.PT.ov in
    let with_ov ov = { o with PT.list_part = { l with PT.ov } } in
    c.Labeling.v.(v) <-
      (match i mod 3 with
      | 0 ->
        let il = ov.PT.list_part in
        let ob = Array.map (fun _ -> SO.In) il.PT.ob in
        with_ov { ov with PT.list_part = { il with PT.ob } }
      | 1 -> { o with PT.perr = next_perr o.PT.perr }
      | _ -> with_ov { ov with PT.perr = next_perr ov.PT.perr })
  done;
  c

let render_pi3_checks () =
  let rng = Random.State.make [| 27 |] in
  let buf = Buffer.create 65536 in
  let g, input =
    pi3.Spec.hard_instance (Random.State.make [| 1 |]) ~target:3000
  in
  let inst = Instance.create ~seed:1 g in
  List.iter
    (fun (which, solve) ->
      let out, _ = solve inst input in
      List.iter
        (fun k ->
          render_check buf
            (Printf.sprintf "pi3 n%d %s corrupt %d" (G.n g) which k)
            pi3.Spec.problem g ~input
            ~output:(if k = 0 then out else corrupt_pi3 rng ~input out k))
        [ 0; 1; 4; 9 ])
    [ ("det", pi3.Spec.solve_det); ("rand", pi3.Spec.solve_rand) ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_check_golden () =
  let rng = Random.State.make [| 24 |] in
  let buf = Buffer.create 65536 in
  for k = 0 to 39 do
    let g = multigraph rng in
    let input = Labeling.const g ~v:() ~e:() ~b:() in
    let case name = Printf.sprintf "%s #%d n%d m%d" name k (G.n g) (G.m g) in
    render_check buf (case "so") SO.problem g ~input ~output:(GLab.so rng g);
    render_check buf (case "coloring")
      (Repro_problems.Coloring.problem ~delta:(G.max_degree g))
      g ~input ~output:(GLab.coloring rng g);
    render_check buf (case "mis") Repro_problems.Mis.problem g ~input
      ~output:(GLab.mis rng g);
    render_check buf (case "matching") Repro_problems.Matching.problem g ~input
      ~output:(GLab.matching rng g)
  done;
  List.iter
    (fun seed ->
      let g, input =
        pi2.Spec.hard_instance (Random.State.make [| seed |]) ~target:400
      in
      let inst = Instance.create ~seed g in
      List.iter
        (fun (which, solve) ->
          let out, _ = solve inst input in
          let n = G.n g and hs = Array.length out.Labeling.b in
          let pick k = Random.State.int rng k in
          let swap_v = Labeling.copy out in
          let bad_edge = Labeling.copy out in
          for _ = 1 to 3 do
            swap swap_v.Labeling.v (pick n) (pick n);
            let h = pick hs in
            bad_edge.Labeling.b.(h) <-
              Option.map
                (fun ho -> { ho with NP.bad_edge = true })
                out.Labeling.b.(h)
          done;
          let perr = Labeling.copy out in
          for _ = 1 to 3 do
            let v = pick n in
            let o = perr.Labeling.v.(v) in
            perr.Labeling.v.(v) <-
              {
                o with
                PT.perr =
                  (match o.PT.perr with
                  | PT.NoPortErr -> PT.PortErr1
                  | PT.PortErr1 -> PT.PortErr2
                  | PT.PortErr2 -> PT.NoPortErr);
              }
          done;
          List.iter
            (fun (c, output) ->
              render_check buf
                (Printf.sprintf "pi2 seed %d %s %s" seed which c)
                pi2.Spec.problem g ~input ~output)
            [
              ("clean", out);
              ("swap v", swap_v);
              ("bad edge", bad_edge);
              ("perr", perr);
            ])
        [ ("det", pi2.Spec.solve_det); ("rand", pi2.Spec.solve_rand) ])
    [ 1; 2; 3 ];
  Alcotest.(check string)
    "check digest" check_golden
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check string)
    "pi3 check digest" check_golden_pi3 (render_pi3_checks ())

let suite =
  [
    ("pi2 output golden", `Quick, test_pi2_golden);
    ("padded input golden", `Quick, test_padded_input_golden);
    ("gadget violations golden", `Quick, test_violations_golden);
    ("ne-LCL check golden", `Quick, test_check_golden);
  ]
