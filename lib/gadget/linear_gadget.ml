module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Meter = Repro_local.Meter
open Labels

let size ~delta ~leg = (delta * leg) + 1

let leg_for ~delta ~target = max 1 ((target - 1 + delta - 1) / delta)

(* node layout: center = 0; leg i (1-based) occupies
   [1 + (i-1)·leg, i·leg], head (adjacent to the center) first *)
let build ~delta ~leg =
  if delta < 1 || leg < 1 then invalid_arg "Linear_gadget.build";
  let n = size ~delta ~leg in
  let b = G.Builder.create n in
  let entries = ref [] in
  let add u v lu lv =
    let e = G.Builder.add_edge b u v in
    entries := (2 * e, lu) :: ((2 * e) + 1, lv) :: !entries
  in
  for i = 1 to delta do
    let base = 1 + ((i - 1) * leg) in
    add 0 base (Down i) Up;
    for j = 0 to leg - 2 do
      (* away from the center: RChild on the near side, Parent on the far *)
      add (base + j) (base + j + 1) RChild Parent
    done
  done;
  let graph = G.Builder.build b in
  let halves = Array.make (2 * G.m graph) Up in
  List.iter (fun (h, l) -> halves.(h) <- l) !entries;
  let nodes =
    Array.init n (fun v ->
        if v = 0 then { kind = Center; port = None; color2 = 0 }
        else begin
          let i = ((v - 1) / leg) + 1 in
          let j = (v - 1) mod leg in
          {
            kind = Index i;
            port = (if j = leg - 1 then Some i else None);
            color2 = 0;
          }
        end)
  in
  let color = Build.greedy_distance2_coloring graph in
  let nodes = Array.mapi (fun v nl -> { nl with color2 = color.(v) }) nodes in
  let half_color2 =
    Array.init (2 * G.m graph) (fun h -> color.(G.half_node graph h))
  in
  let dummy = { f_right = false; f_left = false; f_child = false } in
  with_truthful_flags
    { graph; nodes; halves; half_color2; half_flags = Array.make (2 * G.m graph) dummy }

(* ------------------------------------------------------------------ *)
(* local checkability *)
(* ------------------------------------------------------------------ *)

type violation = { node : int; rule : string }

let node_violations ~delta (t : Labels.t) u =
  let g = t.graph in
  let bad = ref [] in
  let fail rule = bad := { node = u; rule } :: !bad in
  let hs = G.halves g u in
  let labels = Array.map (fun h -> t.halves.(h)) hs in
  let has l = Array.exists (fun l' -> l' = l) labels in
  (* L1b: distinct labels *)
  let s = Array.copy labels in
  Array.sort compare s;
  for i = 1 to Array.length s - 1 do
    if s.(i) = s.(i - 1) then fail "L1b"
  done;
  (* L1a: no self-loops or parallel edges (structural, for Ψ) *)
  let fars = Array.map (fun h -> G.half_node g (G.mate h)) hs in
  let sf = Array.copy fars in
  Array.sort compare sf;
  let par = ref false in
  for i = 1 to Array.length sf - 1 do
    if sf.(i) = sf.(i - 1) then par := true
  done;
  if Array.exists (fun w -> w = u) fars || !par then fail "L1a";
  (* Lfl / Ld2: flags and colors (same mechanics as the log family) *)
  let tf = true_flags t u in
  if Array.exists (fun h -> t.half_flags.(h) <> tf) hs then fail "Lfl";
  let c = t.nodes.(u).color2 in
  if Array.exists (fun h -> t.half_color2.(h) <> c) hs then fail "Ld2";
  let fc = Array.map (fun w -> t.nodes.(w).color2) fars in
  if Array.exists (fun x -> x = c) fc then fail "Ld2"
  else begin
    let sc = Array.copy fc in
    Array.sort compare sc;
    for i = 1 to Array.length sc - 1 do
      if sc.(i) = sc.(i - 1) then fail "Ld2"
    done
  end;
  (match t.nodes.(u).kind with
  | Center ->
    if Array.length hs <> delta then fail "Lc-deg";
    if t.nodes.(u).port <> None then fail "Lc-port";
    Array.iter
      (fun h ->
        (match t.halves.(h) with
        | Down i -> (
          if t.halves.(G.mate h) <> Up then fail "Lc-up";
          match t.nodes.(G.half_node g (G.mate h)).kind with
          | Index j -> if j <> i then fail "Lc-index"
          | Center -> fail "Lc-index")
        | Parent | LChild | RChild | Left | Right | Up -> fail "Lc-label"))
      hs
  | Index i ->
    (* leg labels only *)
    Array.iter
      (fun h ->
        match t.halves.(h) with
        | Parent | RChild | Up -> ()
        | LChild | Left | Right | Down _ -> fail "Ll-label")
      hs;
    (* mates pair up; neighbors share the leg index *)
    Array.iter
      (fun h ->
        let m = t.halves.(G.mate h) in
        let far_kind = t.nodes.(G.half_node g (G.mate h)).kind in
        match t.halves.(h) with
        | Parent ->
          if m <> RChild then fail "Lpair";
          if far_kind <> Index i then fail "Lindex"
        | RChild ->
          if m <> Parent then fail "Lpair";
          if far_kind <> Index i then fail "Lindex"
        | Up -> if far_kind <> Center then fail "Lup"
        | LChild | Left | Right | Down _ -> ())
      hs;
    (* shape: at most one of each (L1b), a leg node has Parent or Up but
       not both, and exactly the port end lacks RChild *)
    if has Parent && has Up then fail "Lshape";
    if (not (has Parent)) && not (has Up) then fail "Lshape";
    (match t.nodes.(u).port with
    | Some j ->
      if j <> i then fail "Lport-index";
      if has RChild then fail "Lport-shape"
    | None -> if not (has RChild) then fail "Lport-shape"));
  List.rev !bad

let violations ~delta t =
  let all = ref [] in
  for u = G.n t.graph - 1 downto 0 do
    all := node_violations ~delta t u @ !all
  done;
  !all

let is_valid ~delta t = violations ~delta t = []

let erring_nodes ~delta t =
  Array.init (G.n t.graph) (fun u -> node_violations ~delta t u <> [])

(* ------------------------------------------------------------------ *)
(* the ne-LCL Ψ of this family (same output types as Ne_psi)          *)
(* ------------------------------------------------------------------ *)

open Ne_psi

let node_input_bad ~delta (v_in : node_label) (b_in : half_in array) =
  let labels = Array.map (fun b -> b.bl) b_in in
  let has l = Array.exists (fun l' -> l' = l) labels in
  let dup =
    let s = Array.copy labels in
    Array.sort compare s;
    let d = ref false in
    for i = 1 to Array.length s - 1 do
      if s.(i) = s.(i - 1) then d := true
    done;
    !d
  in
  let flags =
    {
      f_right = has Right;
      f_left = has Left;
      f_child = has LChild || has RChild;
    }
  in
  dup
  || Array.exists (fun b -> b.bflags <> flags) b_in
  || Array.exists (fun b -> b.bcolor <> v_in.color2) b_in
  ||
  match v_in.kind with
  | Center ->
    Array.length b_in <> delta
    || v_in.port <> None
    || Array.exists
         (fun b -> match b.bl with Down _ -> false | _ -> true)
         b_in
  | Index i -> (
    Array.exists
      (fun b ->
        match b.bl with
        | Parent | RChild | Up -> false
        | LChild | Left | Right | Down _ -> true)
      b_in
    || (has Parent && has Up)
    || ((not (has Parent)) && not (has Up))
    ||
    match v_in.port with
    | Some j -> j <> i || has RChild
    | None -> not (has RChild))

let edge_input_bad (u_in : node_label) (w_in : node_label) (bu : half_in)
    (bw : half_in) =
  let dir lu (uk : node_kind) (wk : node_kind) lw =
    match lu with
    | Parent -> (
      lw <> RChild
      ||
      match (uk, wk) with
      | Index i, Index j -> i <> j
      | (Center | Index _), _ -> uk = Center || wk = Center)
    | RChild -> (
      lw <> Parent
      ||
      match (uk, wk) with
      | Index i, Index j -> i <> j
      | (Center | Index _), _ -> uk = Center || wk = Center)
    | Up -> wk <> Center
    | Down i -> (
      uk <> Center || lw <> Up
      || match wk with Index j -> j <> i | Center -> true)
    | LChild | Left | Right -> true (* illegal labels in this family *)
  in
  u_in.color2 = w_in.color2
  || dir bu.bl u_in.kind w_in.kind bw.bl
  || dir bw.bl w_in.kind u_in.kind bu.bl

let check_node ~delta (nv : (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.node_view) =
  let out = Ne_lcl.v_out nv in
  let d = Ne_lcl.degree nv in
  let all_halves f =
    let ok = ref true in
    for i = 0 to d - 1 do
      if not (f (Ne_lcl.b_out nv i)) then ok := false
    done;
    !ok
  in
  let mirrors_ok = all_halves (fun h -> h.mirror = out) in
  let ok_clean =
    out.status <> NOk
    || (out.chains = []
       && all_halves (fun h ->
              (not h.bad_edge) && h.color_claim = None && h.to_next = []
              && h.from_prev = []))
  in
  (* this family needs no chains: forbid them entirely *)
  let no_chains =
    out.chains = [] && all_halves (fun h -> h.to_next = [] && h.from_prev = [])
  in
  let has_label l =
    let found = ref false in
    for i = 0 to d - 1 do
      if (Ne_lcl.b_in nv i).bl = l then found := true
    done;
    !found
  in
  let ptr_ok =
    match out.status with
    | NPtr Psi.PParent -> has_label Parent
    | NPtr Psi.PRChild -> has_label RChild
    | NPtr Psi.PUp -> (Ne_lcl.v_in nv).kind <> Center && has_label Up
    | NPtr (Psi.PDown i) -> (Ne_lcl.v_in nv).kind = Center && has_label (Down i)
    | NPtr (Psi.PRight | Psi.PLeft) -> false (* not used by this family *)
    | NOk | NWit -> true
  in
  let justified =
    match out.status with
    | NWit ->
      node_input_bad ~delta (Ne_lcl.v_in nv) (Array.init d (Ne_lcl.b_in nv))
      || not (all_halves (fun h -> not h.bad_edge))
      || (let claims =
            List.init d (Ne_lcl.b_out nv)
            |> List.filter_map (fun h -> h.color_claim)
          in
          let sorted = List.sort compare claims in
          let rec dup = function
            | a :: (b :: _ as r) -> a = b || dup r
            | _ -> false
          in
          dup sorted)
    | NOk | NPtr _ -> true
  in
  mirrors_ok && ok_clean && no_chains && ptr_ok && justified

let edge_ok (u_in : node_label) (w_in : node_label) (u_out : node_out)
    (w_out : node_out) (bu_in : half_in) (bw_in : half_in) (bu_out : half_out)
    (bw_out : half_out) =
  let mirrors = bu_out.mirror = u_out && bw_out.mirror = w_out in
  let mix = (u_out.status = NOk) = (w_out.status = NOk) in
  let ptr_rule (src : node_out) (src_in : node_label) (lsrc : half_label)
      (dst : node_out) =
    match src.status with
    | NOk | NWit -> true
    | NPtr p -> (
      let applies =
        match (p, lsrc) with
        | Psi.PParent, Parent | Psi.PRChild, RChild | Psi.PUp, Up -> true
        | Psi.PDown i, Down j -> i = j
        | ( ( Psi.PRight | Psi.PLeft | Psi.PParent | Psi.PRChild | Psi.PUp
            | Psi.PDown _ ),
            _ ) -> false
      in
      if not applies then true
      else
        match (p, dst.status) with
        | _, NWit -> true
        | Psi.PParent, NPtr (Psi.PParent | Psi.PUp) -> true
        | Psi.PRChild, NPtr Psi.PRChild -> true
        | Psi.PUp, NPtr (Psi.PDown j) -> (
          match src_in.kind with Index i -> j <> i | Center -> false)
        | Psi.PDown _, NPtr Psi.PRChild -> true
        | ( ( Psi.PRight | Psi.PLeft | Psi.PParent | Psi.PRChild | Psi.PUp
            | Psi.PDown _ ),
            (NOk | NPtr _) ) -> false)
  in
  let bad_edge_ok =
    ((not bu_out.bad_edge) && not bw_out.bad_edge)
    || edge_input_bad u_in w_in bu_in bw_in
  in
  let claim_ok (h : half_out) (far : node_label) =
    match h.color_claim with None -> true | Some c -> far.color2 = c
  in
  mirrors && mix
  && ptr_rule u_out u_in bu_in.bl w_out
  && ptr_rule w_out w_in bw_in.bl u_out
  && bad_edge_ok
  && claim_ok bu_out w_in
  && claim_ok bw_out u_in

let check_edge ev =
  Ne_lcl.(
    edge_ok (u_in ev) (w_in ev) (u_out ev) (w_out ev) (bu_in ev) (bw_in ev)
      (bu_out ev) (bw_out ev))

let problem ~delta : problem_t =
  {
    Ne_lcl.name = "psi-linear-ne";
    check_node = check_node ~delta;
    check_edge;
  }

(* ------------------------------------------------------------------ *)
(* the prover                                                          *)
(* ------------------------------------------------------------------ *)

let prove ~delta ~n (t : Labels.t) =
  ignore n;
  let g = t.graph in
  let sz = G.n g in
  let err = erring_nodes ~delta t in
  let meter = Meter.create sz in
  let status = Array.make sz NOk in
  (* per component: if no err, all NOk; else pointers toward errors *)
  let comp, ncomp = T.components g in
  let comp_has_err = Array.make ncomp false in
  let comp_has_center = Array.make ncomp false in
  for v = 0 to sz - 1 do
    if err.(v) then comp_has_err.(comp.(v)) <- true;
    if t.nodes.(v).kind = Center then comp_has_center.(comp.(v)) <- true
  done;
  (* walk helper along a unique label *)
  let walk_err v dir ~cap =
    let visited = Hashtbl.create 16 in
    let rec go v steps =
      if steps > cap || Hashtbl.mem visited v then false
      else begin
        Hashtbl.replace visited v ();
        if steps >= 1 && err.(v) then true
        else
          match follow t v dir with
          | None -> false
          | Some w -> go w (steps + 1)
      end
    in
    go v 0
  in
  for u = 0 to sz - 1 do
    if err.(u) then status.(u) <- NWit
    else if not comp_has_err.(comp.(u)) then
      (* an error-free component with a center is a valid gadget; without
         one it is a disguised Parent-cycle, and Definition 2 requires V
         to use only error labels: the all-PParent labeling is consistent
         exactly there *)
      status.(u) <-
        (if comp_has_center.(comp.(u)) then NOk else NPtr Psi.PParent)
    else begin
      let p : Psi.pointer =
        match t.nodes.(u).kind with
        | Center ->
          let downs =
            Array.to_list (G.halves g u)
            |> List.filter_map (fun h ->
                   match t.halves.(h) with Down i -> Some i | _ -> None)
            |> List.sort_uniq compare
          in
          let hit i =
            match follow t u (Down i) with
            | None -> false
            | Some v -> err.(v) || walk_err v RChild ~cap:sz
          in
          let rec first = function
            | [] -> (match downs with i :: _ -> Psi.PDown i | [] -> Psi.PUp)
            | i :: rest -> if hit i then Psi.PDown i else first rest
          in
          first downs
        | Index _ ->
          if walk_err u RChild ~cap:sz then Psi.PRChild
          else if walk_err u Parent ~cap:sz then Psi.PParent
          else if has_half t u Parent then Psi.PParent
          else Psi.PUp
      in
      status.(u) <- NPtr p
    end
  done;
  (* witnesses' evidence *)
  let bad_edge_mark = Hashtbl.create 16 in
  let color_claim_mark = Hashtbl.create 16 in
  for u = 0 to sz - 1 do
    if status.(u) = NWit then begin
      let hs = G.halves g u in
      Array.iter
        (fun h ->
          let m = G.mate h in
          let w = G.half_node g m in
          let bu = { bl = t.halves.(h); bcolor = t.half_color2.(h); bflags = t.half_flags.(h) } in
          let bw = { bl = t.halves.(m); bcolor = t.half_color2.(m); bflags = t.half_flags.(m) } in
          if edge_input_bad t.nodes.(u) t.nodes.(w) bu bw then
            Hashtbl.replace bad_edge_mark h ())
        hs;
      let arr = Array.map (fun h -> (t.nodes.(G.half_node g (G.mate h)).color2, h)) hs in
      Array.sort compare arr;
      for i = 1 to Array.length arr - 1 do
        let c0, h0 = arr.(i - 1) and c1, h1 = arr.(i) in
        if c0 = c1 then begin
          Hashtbl.replace color_claim_mark h0 c0;
          Hashtbl.replace color_claim_mark h1 c1
        end
      done
    end
  done;
  (* charges: seeing the whole component (d(n) = n family) *)
  let comp_size = Array.make ncomp 0 in
  for v = 0 to sz - 1 do
    comp_size.(comp.(v)) <- comp_size.(comp.(v)) + 1
  done;
  for v = 0 to sz - 1 do
    if err.(v) then Meter.charge meter v 2
    else Meter.charge meter v comp_size.(comp.(v))
  done;
  let node_out u = { status = status.(u); chains = [] } in
  let sol : solution =
    Labeling.init g
      ~v:(fun u -> node_out u)
      ~e:(fun _ -> ())
      ~b:(fun h ->
        let u = G.half_node g h in
        {
          mirror = node_out u;
          bad_edge = Hashtbl.mem bad_edge_mark h;
          color_claim = Hashtbl.find_opt color_claim_mark h;
          to_next = [];
          from_prev = [];
        })
  in
  (sol, meter)
