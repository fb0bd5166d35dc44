module G = Repro_graph.Multigraph
module T = Repro_graph.Traversal
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Meter = Repro_local.Meter
open Labels

type chain_kind = K2c | K2d

let chain_last = function K2c -> 3 | K2d -> 4

let chain_step k pos =
  match (k, pos) with
  | K2c, 0 -> LChild
  | K2c, 1 -> Right
  | K2c, 2 -> Parent
  | K2d, 0 -> Right
  | K2d, 1 -> LChild
  | K2d, 2 -> Left
  | K2d, 3 -> Parent
  | (K2c | K2d), _ -> invalid_arg "Ne_psi.chain_step"

type chain_id = { ccolor : int; cpos : int; ckind : chain_kind }

type status = NOk | NPtr of Psi.pointer | NWit

type node_out = { status : status; chains : chain_id list }

type half_in = { bl : half_label; bcolor : int; bflags : half_flags }

type half_out = {
  mirror : node_out;
  bad_edge : bool;
  color_claim : int option;
  to_next : chain_id list;
  from_prev : chain_id list;
}

type problem_t =
  (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.t

type solution = (node_out, unit, half_out) Labeling.t

(* ------------------------------------------------------------------ *)
(* Input-visible violation predicates                                 *)
(* ------------------------------------------------------------------ *)

let is_subgadget_label = function
  | Parent | LChild | RChild | Left | Right -> true
  | Up | Down _ -> false

(* A violation visible from one node's own input labels. *)
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
  let flags_lie = Array.exists (fun b -> b.bflags <> flags) b_in in
  let color_lie = Array.exists (fun b -> b.bcolor <> v_in.color2) b_in in
  dup || flags_lie || color_lie
  ||
  match v_in.kind with
  | Center ->
    Array.length b_in <> delta
    || v_in.port <> None
    || Array.exists (fun b -> match b.bl with Down _ -> false | _ -> true) b_in
  | Index i -> (
    (match v_in.port with Some j -> j <> i | None -> false)
    (* 1c, node-visible part: Down labels only occur at the center *)
    || Array.exists (fun b -> match b.bl with Down _ -> true | _ -> false) b_in
    (* 3e: no Right and no Left means root shape *)
    || ((not (has Right)) && (not (has Left))
       && not
            (has LChild && has RChild
            && Array.for_all
                 (fun l ->
                   match l with
                   | LChild | RChild | Up -> true
                   | Parent | Left | Right | Down _ -> false)
                 labels))
    (* 3f *)
    || has RChild <> has LChild
    (* 3h *)
    || (v_in.port <> None)
       <> ((not (has Right)) && (not (has LChild)) && not (has RChild))
    (* §4.3 c1, node-visible part: a sub-gadget node hangs on a parent or
       on the center *)
    || ((not (has Parent)) && not (has Up)))

(* A violation visible from one edge's input labels (both sides). *)
let edge_input_bad (u_in : node_label) (w_in : node_label) (bu : half_in)
    (bw : half_in) =
  let dir lu (uk : node_kind) (wk : node_kind) lw (fu : half_flags)
      (fw : half_flags) =
    match lu with
    | Left -> lw <> Right || uk = Center || wk = Center
    | Right -> lw <> Left || uk = Center || wk = Center
    | LChild | RChild -> lw <> Parent || uk = Center || wk = Center
    | Parent ->
      lw <> RChild && lw <> LChild
      || uk = Center || wk = Center
      (* 3a / 3b via replicated flags: w is u's parent *)
      || (not fu.f_right) <> ((not fw.f_right) && lw = RChild)
      || (not fu.f_left) <> ((not fw.f_left) && lw = LChild)
    | Up -> wk <> Center
    | Down i -> (
      uk <> Center || lw <> Up
      || match wk with Index j -> j <> i | Center -> true)
  in
  let index_mismatch lu uk wk =
    is_subgadget_label lu
    &&
    match (uk, wk) with
    | Index i, Index j -> i <> j
    | (Center | Index _), _ -> uk = Center || wk = Center
  in
  let bottom lu (fu : half_flags) (fw : half_flags) =
    (* 3g: a childless node's horizontal neighbors are childless *)
    (lu = Left || lu = Right) && (not fu.f_child) && fw.f_child
  in
  u_in.color2 = w_in.color2
  || dir bu.bl u_in.kind w_in.kind bw.bl bu.bflags bw.bflags
  || dir bw.bl w_in.kind u_in.kind bu.bl bw.bflags bu.bflags
  || index_mismatch bu.bl u_in.kind w_in.kind
  || index_mismatch bw.bl w_in.kind u_in.kind
  || bottom bu.bl bu.bflags bw.bflags
  || bottom bw.bl bw.bflags bu.bflags

(* ------------------------------------------------------------------ *)
(* The ne-LCL                                                          *)
(* ------------------------------------------------------------------ *)

(* The kernels below run on every node and edge of every Π' check, so
   they are closure-free loops: no per-call allocation, and a [==] fast
   path before each structural compare of a mirror (the prover shares one
   [node_out] between a node and its halves' mirrors). They evaluate the
   same predicates in an order that raises exactly where a plain
   left-to-right reading would ([chain_step] rejects positions outside a
   chain). *)

(* [List.mem { c with cpos = pos } chains], without building the record *)
let rec chain_mem_at c pos = function
  | [] -> false
  | x :: r ->
    (x.ccolor = c.ccolor && x.cpos = pos && x.ckind = c.ckind)
    || chain_mem_at c pos r

let chain_mem c chains = chain_mem_at c c.cpos chains

let is_nok = function NOk -> true | NPtr _ | NWit -> false
let is_nwit = function NWit -> true | NOk | NPtr _ -> false

let mirror_ok (h : half_out) out = h.mirror == out || h.mirror = out

let is_clean h =
  (not h.bad_edge)
  && (match h.color_claim with None -> true | Some _ -> false)
  && (match h.to_next with [] -> true | _ :: _ -> false)
  && match h.from_prev with [] -> true | _ :: _ -> false

(* Ψ_G is checked at every gadget node and edge of every Π' check, so
   [check_node]'s pass over the halves reads the window's raw fields,
   and the edge constraint is [edge_ok], a function of the edge's eight
   labels that Π' calls on labels read from its own window ([check_edge]
   only wraps it); the rarer predicates below (chains, pointers,
   witnesses) read through {!Ne_lcl}'s accessors. *)

(* the halves whose [tags] (e.g. [to_next_of]) carry [c]; [tags] is a
   top-level function, so passing it allocates nothing *)
let count_tags tags c nv =
  let k = ref 0 in
  for i = 0 to Ne_lcl.degree nv - 1 do
    if chain_mem c (tags (Ne_lcl.b_out nv i)) then incr k
  done;
  !k

let to_next_of h = h.to_next
let from_prev_of h = h.from_prev

let rec chains_ok nv = function
  | [] -> true
  | c :: r ->
    (c.cpos >= chain_last c.ckind || count_tags to_next_of c nv = 1)
    && (c.cpos = 0 || count_tags from_prev_of c nv = 1)
    && chains_ok nv r

(* The tag checks of one half. Every tag of every half is checked, with
   no early exit: [chain_step] may raise on a later tag even after an
   earlier one failed. *)
let rec next_tags_ok out (input : half_in) ok = function
  | [] -> ok
  | c :: r ->
    let bad =
      (not (chain_mem c out.chains))
      || c.cpos >= chain_last c.ckind
      || input.bl <> chain_step c.ckind c.cpos
    in
    next_tags_ok out input (ok && not bad) r

let rec prev_tags_ok out ok = function
  | [] -> ok
  | c :: r ->
    let bad = (not (chain_mem c out.chains)) || c.cpos = 0 in
    prev_tags_ok out (ok && not bad) r

(* scans from port [i]; top-level so that it allocates nothing *)
let rec has_label l nv i =
  i < Ne_lcl.degree nv
  && ((Ne_lcl.b_in nv i : half_in).bl = l || has_label l nv (i + 1))

let rec any_bad_edge nv i =
  i < Ne_lcl.degree nv
  && ((Ne_lcl.b_out nv i : half_out).bad_edge || any_bad_edge nv (i + 1))

(* two halves claim the same color *)
let dup_claims nv =
  let d = Ne_lcl.degree nv in
  let found = ref false in
  for i = 0 to d - 1 do
    match (Ne_lcl.b_out nv i : half_out).color_claim with
    | None -> ()
    | Some a ->
      for j = i + 1 to d - 1 do
        match (Ne_lcl.b_out nv j : half_out).color_claim with
        | Some b when a = b -> found := true
        | Some _ | None -> ()
      done
  done;
  !found

let rec open_end chains = function
  | [] -> false
  | c :: r ->
    (c.cpos = chain_last c.ckind && not (chain_mem_at c 0 chains))
    || open_end chains r

let rec open_start chains = function
  | [] -> false
  | c :: r ->
    (c.cpos = 0 && not (chain_mem_at c (chain_last c.ckind) chains))
    || open_start chains r

let check_node ~delta (nv : (node_label, unit, half_in, node_out, unit, half_out) Ne_lcl.node_view) =
  let out : node_out = nv.Ne_lcl.vo.(nv.Ne_lcl.node) in
  (* One pass reads each half once, from the window's raw fields (Ne_lcl's
     raw window access). Every tag of every half is checked in full,
     since that is the only predicate that can raise; the mirror and
     cleanliness checks alongside it cannot, so the verdict and the
     raising are those of checking the tags first. *)
  let bo : half_out array = nv.Ne_lcl.bo in
  let bi : half_in array = nv.Ne_lcl.bi in
  let ports = nv.Ne_lcl.ports and lo = nv.Ne_lcl.lo in
  let tags = ref true and mirrors = ref true and clean = ref true in
  for i = 0 to nv.Ne_lcl.degree - 1 do
    let p = ports.(lo + i) in
    let h = bo.(p) in
    (match h.to_next with
    | [] -> ()
    | l -> tags := next_tags_ok out bi.(p) !tags l);
    tags := prev_tags_ok out !tags h.from_prev;
    if not (mirror_ok h out) then mirrors := false;
    if not (is_clean h) then clean := false
  done;
  !tags && !mirrors
  && ((not (is_nok out.status))
     || (match out.chains with [] -> true | _ :: _ -> false) && !clean)
  && chains_ok nv out.chains
  && (* pointer well-formedness *)
  (match out.status with
  | NPtr Psi.PRight -> has_label Right nv 0
  | NPtr Psi.PLeft -> has_label Left nv 0
  | NPtr Psi.PParent -> has_label Parent nv 0
  | NPtr Psi.PRChild -> has_label RChild nv 0
  | NPtr Psi.PUp -> (Ne_lcl.v_in nv).kind <> Center && has_label Up nv 0
  | NPtr (Psi.PDown i) ->
    (Ne_lcl.v_in nv).kind = Center && has_label (Down i) nv 0
  | NOk | NWit -> true)
  &&
  (* witness justification *)
  match out.status with
  | NWit ->
    node_input_bad ~delta (Ne_lcl.v_in nv)
      (Array.init (Ne_lcl.degree nv) (Ne_lcl.b_in nv))
    || any_bad_edge nv 0
    || dup_claims nv
    || open_end out.chains out.chains
    || open_start out.chains out.chains
  | NOk | NPtr _ -> true

let ptr_rule (src : node_out) (src_in : node_label) (lsrc : half_label)
    (dst : node_out) =
  match src.status with
  | NOk | NWit -> true
  | NPtr p -> (
    let applies =
      match (p, lsrc) with
      | Psi.PRight, Right
      | Psi.PLeft, Left
      | Psi.PParent, Parent
      | Psi.PRChild, RChild
      | Psi.PUp, Up -> true
      | Psi.PDown i, Down j -> i = j
      | ( ( Psi.PRight | Psi.PLeft | Psi.PParent | Psi.PRChild | Psi.PUp
          | Psi.PDown _ ),
          _ ) -> false
    in
    if not applies then true
    else
      match (p, dst.status) with
      | _, NWit -> true
      | Psi.PRight, NPtr Psi.PRight -> true
      | Psi.PLeft, NPtr Psi.PLeft -> true
      | ( Psi.PParent,
          NPtr (Psi.PParent | Psi.PLeft | Psi.PRight | Psi.PUp) ) -> true
      | Psi.PRChild, NPtr (Psi.PRChild | Psi.PRight | Psi.PLeft) -> true
      | Psi.PUp, NPtr (Psi.PDown j) -> (
        match src_in.kind with Index i -> j <> i | Center -> false)
      | Psi.PDown _, NPtr Psi.PRChild -> true
      | ( ( Psi.PRight | Psi.PLeft | Psi.PParent | Psi.PRChild | Psi.PUp
          | Psi.PDown _ ),
          (NOk | NPtr _) ) -> false)

let claim_ok (h : half_out) (far : node_label) =
  match h.color_claim with None -> true | Some c -> far.color2 = c

(* every [to_next] tag steps along [lsrc] to its successor at the far
   node, every [from_prev] tag arrives along [lfar] from its
   predecessor *)
let rec next_edge_ok (lsrc : half_in) (far : node_out) = function
  | [] -> true
  | c :: r ->
    lsrc.bl = chain_step c.ckind c.cpos
    && chain_mem_at c (c.cpos + 1) far.chains
    && next_edge_ok lsrc far r

let rec prev_edge_ok (lfar : half_in) (far : node_out) = function
  | [] -> true
  | c :: r ->
    lfar.bl = chain_step c.ckind (c.cpos - 1)
    && chain_mem_at c (c.cpos - 1) far.chains
    && prev_edge_ok lfar far r

let chain_edge (h : half_out) (lsrc : half_in) (lfar : half_in)
    (far : node_out) =
  next_edge_ok lsrc far h.to_next && prev_edge_ok lfar far h.from_prev

type edge_constraint =
  node_label ->
  node_label ->
  node_out ->
  node_out ->
  half_in ->
  half_in ->
  half_out ->
  half_out ->
  bool

let edge_ok (u_in : node_label) (w_in : node_label) (u_out : node_out)
    (w_out : node_out) (bu_in : half_in) (bw_in : half_in) (bu_out : half_out)
    (bw_out : half_out) =
  mirror_ok bu_out u_out
  && mirror_ok bw_out w_out
  && is_nok u_out.status = is_nok w_out.status
  && ptr_rule u_out u_in bu_in.bl w_out
  && ptr_rule w_out w_in bw_in.bl u_out
  && (((not bu_out.bad_edge) && not bw_out.bad_edge)
     || edge_input_bad u_in w_in bu_in bw_in)
  && claim_ok bu_out w_in
  && claim_ok bw_out u_in
  && chain_edge bu_out bu_in bw_in w_out
  && chain_edge bw_out bw_in bu_in u_out

let check_edge ev =
  Ne_lcl.(
    edge_ok (u_in ev) (w_in ev) (u_out ev) (w_out ev) (bu_in ev) (bw_in ev)
      (bu_out ev) (bw_out ev))

let problem ~delta : problem_t =
  {
    name = "psi-gadget-ne";
    check_node = check_node ~delta;
    check_edge;
  }

(* ------------------------------------------------------------------ *)
(* Inputs and solutions                                                *)
(* ------------------------------------------------------------------ *)

let input_of (t : Labels.t) =
  Labeling.init t.graph
    ~v:(fun v -> t.nodes.(v))
    ~e:(fun _ -> ())
    ~b:(fun h ->
      { bl = t.halves.(h); bcolor = t.half_color2.(h); bflags = t.half_flags.(h) })

let clean_half mirror =
  { mirror; bad_edge = false; color_claim = None; to_next = []; from_prev = [] }

(* the output of a node with nothing to prove, and of each of its
   halves: shared by every such node and half, in every solution *)
let nok = { status = NOk; chains = [] }
let clean_nok = clean_half nok

let all_ok_solution (t : Labels.t) : solution =
  Labeling.const t.graph ~v:nok ~e:() ~b:clean_nok

let is_valid ~delta t (sol : solution) =
  Ne_lcl.is_valid (problem ~delta) t.graph ~input:(input_of t) ~output:sol

let violations ~delta t (sol : solution) =
  Ne_lcl.violations (problem ~delta) t.graph ~input:(input_of t) ~output:sol

(* ------------------------------------------------------------------ *)
(* The prover                                                          *)
(* ------------------------------------------------------------------ *)

(* distance-9 coloring of the chain initiators: greedy, each initiator
   avoids colors of initiators within distance 9 *)
let initiator_colors g initiators =
  let colors = Hashtbl.create 16 in
  List.iter
    (fun u ->
      let near = T.bfs_bounded g u ~radius:9 in
      let avoid = Hashtbl.create 8 in
      List.iter
        (fun (w, _) ->
          match Hashtbl.find_opt colors w with
          | Some c -> Hashtbl.replace avoid c ()
          | None -> ())
        near;
      let rec pick c = if Hashtbl.mem avoid c then pick (c + 1) else c in
      Hashtbl.replace colors u (pick 0))
    initiators;
  colors

(* the witness encoding of a verifier output with at least one
   [Error] *)
let prove_invalid ~delta (t : Labels.t) psi_out meter =
  let g = t.graph in
  let status =
    Array.map
      (function
        | Psi.Ok -> NOk
        | Psi.Error -> NWit
        | Psi.Ptr p -> NPtr p)
      psi_out
  in
  let chains = Array.make (G.n g) [] in
  (* per-half witness data, flat: the solution is assembled from these *)
  let nh = 2 * G.m g in
  let to_next_tag = Array.make nh [] in
  let from_prev_tag = Array.make nh [] in
  let bad_edge_mark = Array.make nh false in
  let color_claim_mark = Array.make nh None in
  (* chain initiators, with the chain kinds each one starts *)
  let wants_chain u =
    let rules = Check.node_violations ~delta t u in
    let has r = List.exists (fun v -> v.Check.rule = r) rules in
    let kinds = ref [] in
    if has "2c" then begin
      match follow_path t u [ LChild; Right; Parent ] with
      | Some w when w <> u -> kinds := K2c :: !kinds
      | Some _ | None -> ()
    end;
    if has "2d" then begin
      match follow_path t u [ Right; LChild; Left; Parent ] with
      | Some w when w <> u -> kinds := K2d :: !kinds
      | Some _ | None -> ()
    end;
    !kinds
  in
  let initiators = ref [] in
  for u = 0 to G.n g - 1 do
    if is_nwit status.(u) then
      match wants_chain u with
      | [] -> ()
      | kinds -> initiators := (u, kinds) :: !initiators
  done;
  let initiators = List.rev !initiators in
  let icolors = initiator_colors g (List.map fst initiators) in
  (* lay chains *)
  List.iter
    (fun (u, kinds) ->
      let col = Hashtbl.find icolors u in
      List.iter
        (fun kind ->
          let rec walk v pos =
            let cid = { ccolor = col; cpos = pos; ckind = kind } in
            if not (List.mem cid chains.(v)) then
              chains.(v) <- cid :: chains.(v);
            if pos < chain_last kind then begin
              match half_with t v (chain_step kind pos) with
              | None -> () (* cannot happen: wants_chain checked the path *)
              | Some h ->
                let prev = to_next_tag.(h) in
                if not (List.mem cid prev) then to_next_tag.(h) <- cid :: prev;
                let w = G.half_node g (G.mate h) in
                let cid' = { ccolor = col; cpos = pos + 1; ckind = kind } in
                let prev' = from_prev_tag.(G.mate h) in
                if not (List.mem cid' prev') then
                  from_prev_tag.(G.mate h) <- cid' :: prev';
                walk w (pos + 1)
            end
          in
          walk u 0;
          Meter.charge meter u 12)
        kinds)
    initiators;
  (* witnesses for edge-visible and color-visible violations *)
  for u = 0 to G.n g - 1 do
    if is_nwit status.(u) then begin
      let hs = G.halves g u in
      (* bad-edge marks *)
      Array.iter
        (fun h ->
          let m = G.mate h in
          let w = G.half_node g m in
          let bu = { bl = t.halves.(h); bcolor = t.half_color2.(h); bflags = t.half_flags.(h) } in
          let bw = { bl = t.halves.(m); bcolor = t.half_color2.(m); bflags = t.half_flags.(m) } in
          if edge_input_bad t.nodes.(u) t.nodes.(w) bu bw then
            bad_edge_mark.(h) <- true)
        hs;
      (* color claims: two halves with equal far colors *)
      let far_color h = t.nodes.(G.half_node g (G.mate h)).color2 in
      let arr = Array.map (fun h -> (far_color h, h)) hs in
      Array.sort compare arr;
      for i = 1 to Array.length arr - 1 do
        let c0, h0 = arr.(i - 1) and c1, h1 = arr.(i) in
        if c0 = c1 then begin
          color_claim_mark.(h0) <- Some c0;
          color_claim_mark.(h1) <- Some c1
        end
      done
    end
  done;
  (* chain participants that end up holding an open end must be witnesses
     only if their status is NWit; others keep pointer/Ok status — but a
     node made to hold chain tags cannot be NOk, so promote those *)
  for u = 0 to G.n g - 1 do
    match chains.(u) with
    | _ :: _ when is_nok status.(u) -> status.(u) <- NWit
    | _ -> ()
  done;
  (* one node_out per node, shared between the node slot and every
     incident half's mirror ([nok] for a node with nothing to prove), and
     one clean half_out per node, shared by all of its halves that carry
     no witness data — values are structurally what a record per half
     would be *)
  let outs =
    Array.init (G.n g) (fun u ->
        match (status.(u), chains.(u)) with
        | NOk, [] -> nok
        (* List.sort allocates its merge closures even on [] *)
        | st, (([] | [ _ ]) as l) -> { status = st; chains = l }
        | st, l -> { status = st; chains = List.sort compare l })
  in
  let clean =
    Array.map (fun o -> if o == nok then clean_nok else clean_half o) outs
  in
  let sol : solution =
    Labeling.init g
      ~v:(fun u -> outs.(u))
      ~e:(fun _ -> ())
      ~b:(fun h ->
        let u = G.half_node g h in
        match (bad_edge_mark.(h), color_claim_mark.(h), to_next_tag.(h),
               from_prev_tag.(h)) with
        | false, None, [], [] -> clean.(u)
        | bad_edge, color_claim, to_next, from_prev ->
          { mirror = outs.(u); bad_edge; color_claim; to_next; from_prev })
  in
  (sol, meter)

let prove ~delta ~n (t : Labels.t) =
  let psi_out, meter = Verifier.run ~delta ~n t in
  if Verifier.is_all_ok psi_out then (all_ok_solution t, meter)
  else prove_invalid ~delta t psi_out meter
