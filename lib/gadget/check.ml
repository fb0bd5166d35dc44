module G = Repro_graph.Multigraph
open Labels

type violation = { node : int; rule : string }

let pp_violation fmt { node; rule } =
  Format.fprintf fmt "node %d violates %s" node rule

let node_violations ~delta (t : Labels.t) u =
  let g = t.graph in
  let bad = ref [] in
  let fail rule = bad := { node = u; rule } :: !bad in
  let hs = G.halves g u in
  let far h = G.half_node g (G.mate h) in
  let labels = Array.map (fun h -> t.halves.(h)) hs in
  let has l = Array.exists (fun l' -> l' = l) labels in
  let kind = t.nodes.(u).kind in
  (* 1a: no self-loops or parallel edges *)
  let fars = Array.map far hs in
  let sorted = Array.copy fars in
  Array.sort compare sorted;
  let parallel = ref false in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then parallel := true
  done;
  if Array.exists (fun w -> w = u) fars || !parallel then fail "1a";
  (* 1b: pairwise distinct incident labels *)
  let slabels = Array.copy labels in
  Array.sort compare slabels;
  let dup = ref false in
  for i = 1 to Array.length slabels - 1 do
    if slabels.(i) = slabels.(i - 1) then dup := true
  done;
  if !dup then fail "1b";
  (* fl: replicated boundary flags are truthful (input well-formedness
     required by the node-edge encoding of §4.6) *)
  let tf = true_flags t u in
  if Array.exists (fun h -> t.half_flags.(h) <> tf) hs then fail "fl";
  (* d2: the distance-2 coloring input is proper in the port sense and
     replicated truthfully (§4.6; this is what convicts self-loops and
     parallel edges in the node-edge encoding) *)
  let c = t.nodes.(u).color2 in
  if Array.exists (fun h -> t.half_color2.(h) <> c) hs then fail "d2";
  let far_colors = Array.map (fun w -> t.nodes.(w).color2) fars in
  if Array.exists (fun fc -> fc = c) far_colors then fail "d2"
  else begin
    let sc = Array.copy far_colors in
    Array.sort compare sc;
    let dupc = ref false in
    for i = 1 to Array.length sc - 1 do
      if sc.(i) = sc.(i - 1) then dupc := true
    done;
    if !dupc then fail "d2"
  end;
  (match kind with
  | Center ->
    (* §4.3 constraint 2 *)
    if Array.length hs <> delta then fail "c2a";
    Array.iter
      (fun h ->
        (match t.nodes.(far h).kind with
        | Index i -> if t.halves.(h) <> Down i then fail "c2b"
        | Center -> fail "c2b");
        if t.halves.(G.mate h) <> Up then fail "c2c")
      hs;
    let idxs =
      Array.to_list hs
      |> List.filter_map (fun h ->
             match t.nodes.(far h).kind with Index i -> Some i | Center -> None)
    in
    let si = List.sort compare idxs in
    let rec d = function a :: (b :: _ as r) -> a = b || d r | _ -> false in
    if d si then fail "c2d";
    if t.nodes.(u).port <> None then fail "1d"
  | Index i ->
    (* 1c: neighbors along sub-gadget edges share the index; Up leads to
       the center; Down never appears on an Index node *)
    Array.iter
      (fun h ->
        match t.halves.(h) with
        | Parent | LChild | RChild | Left | Right -> (
          match t.nodes.(far h).kind with
          | Index j -> if j <> i then fail "1c"
          | Center -> fail "1c")
        | Up -> if t.nodes.(far h).kind <> Center then fail "1c"
        | Down _ -> fail "1c")
      hs;
    (* 1d: Port_j on an Index_i node forces i = j *)
    (match t.nodes.(u).port with
    | Some j when j <> i -> fail "1d"
    | Some _ | None -> ());
    (* 2a / 2b: side labels of an edge match up *)
    Array.iter
      (fun h ->
        let m = t.halves.(G.mate h) in
        match t.halves.(h) with
        | Left -> if m <> Right then fail "2a"
        | Right -> if m <> Left then fail "2a"
        | Parent -> if m <> RChild && m <> LChild then fail "2b"
        | LChild | RChild -> if m <> Parent then fail "2b"
        | Up | Down _ -> ())
      hs;
    (* 2c: u(LChild, Right, Parent) = u *)
    (match follow_path t u [ LChild; Right; Parent ] with
    | Some w when w <> u -> fail "2c"
    | Some _ | None -> ());
    (* 2d: u(Right, LChild, Left, Parent) = u *)
    (match follow_path t u [ Right; LChild; Left; Parent ] with
    | Some w when w <> u -> fail "2d"
    | Some _ | None -> ());
    (* 3a / 3b: the right (left) boundary is exactly the chain of RChild
       (LChild) edges below a boundary parent: u lacks Right iff its
       parent lacks Right and u is the RChild (symmetrically for Left) *)
    (match half_with t u Parent with
    | Some ph ->
      let p = G.half_node g (G.mate ph) in
      let is_rchild = t.halves.(G.mate ph) = RChild in
      let is_lchild = t.halves.(G.mate ph) = LChild in
      if (not (has Right)) <> ((not (has_half t p Right)) && is_rchild) then
        fail "3a";
      if (not (has Left)) <> ((not (has_half t p Left)) && is_lchild) then
        fail "3b"
    | None -> ());
    (* 3c / 3d: rightmost/leftmost nodes are the R/L children *)
    (match half_with t u Parent with
    | Some h ->
      if (not (has Right)) && t.halves.(G.mate h) <> RChild then fail "3c";
      if (not (has Left)) && t.halves.(G.mate h) <> LChild then fail "3d"
    | None -> ());
    (* 3e: no Right and no Left => the root: exactly LChild, RChild
       (plus the Up edge to the center) *)
    if (not (has Right)) && not (has Left) then begin
      let ok_root =
        has LChild && has RChild
        && Array.for_all
             (fun l ->
               match l with
               | LChild | RChild | Up -> true
               | Parent | Left | Right | Down _ -> false)
             labels
      in
      if not ok_root then fail "3e"
    end;
    (* 3f: children come in pairs *)
    if has RChild <> has LChild then fail "3f";
    (* 3g: the bottom boundary is a full level *)
    if (not (has LChild)) && not (has RChild) then begin
      let check_dir dir =
        match follow t u dir with
        | Some w -> not (has_half t w LChild) && not (has_half t w RChild)
        | None -> true
      in
      if not (check_dir Left && check_dir Right) then fail "3g"
    end;
    (* 3h: ports are exactly the bottom-right nodes *)
    let port_shape = (not (has Right)) && (not (has LChild)) && not (has RChild) in
    if (t.nodes.(u).port <> None) <> port_shape then fail "3h";
    (* §4.3 constraint 1: parentless sub-gadget nodes hang off exactly one
       center *)
    if not (has Parent) then begin
      let centers =
        Array.to_list fars
        |> List.filter (fun w -> t.nodes.(w).kind = Center)
        |> List.length
      in
      if centers <> 1 then fail "c1"
    end);
  List.rev !bad

let violations ~delta t =
  let all = ref [] in
  for u = G.n t.graph - 1 downto 0 do
    all := node_violations ~delta t u @ !all
  done;
  !all

let is_valid ~delta t = violations ~delta t = []

(* ------------------------------------------------------------------ *)
(* Allocation-free twin of [node_violations <> []]                     *)
(* ------------------------------------------------------------------ *)

(* The verifier evaluates the per-node predicate once per node per prove
   call — by far the hottest checker path — so it must not build the
   rule list or any intermediate label/color arrays. Everything below is
   a top-level function taking its state as explicit arguments: local
   closures and the [Some h] results of [Labels.half_with]/[follow]
   would otherwise dominate the prover's allocation (they did — see
   EXPERIMENTS.md's W-dispatch allocation table).

   The graph is walked through its raw CSR arrays, hoisted once per
   [erring_nodes] call: [off] ([G.ports_off]), [prt] ([G.ports_flat]) and
   [hn] ([G.half_node_flat]), with [h lxor 1] for the mate. Libraries
   are compiled [-opaque] in the dev profile, so every [G.half_at] or
   [G.half_node] would be an out-of-line call; and labels, kinds and
   ports are compared by pattern match, because polymorphic [=] on
   [half_label], [node_kind] or [int option] is a [caml_equal] call
   (DESIGN.md §18). Kept in lockstep with [node_violations] by the
   equivalence sweep in test/test_gadget.ml, and with the parent
   kernels by test/kernel_ref.ml. *)

exception Bad_node

let is_center = function Center -> true | Index _ -> false

(* [Labels.equal_half_label], repeated here so that the hot loops call
   it directly rather than across an [-opaque] module boundary *)
let same_label (a : half_label) (b : half_label) =
  match (a, b) with
  | Parent, Parent | LChild, LChild | RChild, RChild -> true
  | Left, Left | Right, Right | Up, Up -> true
  | Down i, Down j -> i = j
  | (Parent | LChild | RChild | Left | Right | Up | Down _), _ -> false

(* the half at [v] labeled [l], or -1 *)
let rec half_find halves prt l i e =
  if i >= e then -1
  else
    let h = prt.(i) in
    if same_label halves.(h) l then h else half_find halves prt l (i + 1) e

let half_with_i halves off prt v l = half_find halves prt l off.(v) off.(v + 1)
let has_half_i halves off prt v l = half_with_i halves off prt v l >= 0

(* the neighbor across the [l]-labeled half of [v], or -1 *)
let follow_i halves off prt hn v l =
  let h = half_with_i halves off prt v l in
  if h < 0 then -1 else hn.(h lxor 1)

(* [w] is absent (-1) or has neither an LChild nor an RChild half (3g) *)
let childless halves off prt w =
  w < 0
  || (not (has_half_i halves off prt w LChild))
     && not (has_half_i halves off prt w RChild)

(* all of [u]'s labels are LChild/RChild/Up (3e's root shape) *)
let rec root_labels halves prt i e =
  i >= e
  ||
  match halves.(prt.(i)) with
  | LChild | RChild | Up -> root_labels halves prt (i + 1) e
  | Parent | Left | Right | Down _ -> false

let rec center_count (nodes : node_label array) prt hn i e acc =
  if i >= e then acc
  else
    center_count nodes prt hn (i + 1) e
      (if is_center nodes.(hn.(prt.(i) lxor 1)).kind then acc + 1 else acc)

let bad_at ~delta (t : Labels.t) off prt hn u =
  let halves = t.halves and nodes = t.nodes in
  let b = off.(u) and e = off.(u + 1) in
  let d = e - b in
  let nl = nodes.(u) in
  try
    (* presence bitmask over the constant structural labels *)
    let mask = ref 0 in
    for i = b to e - 1 do
      (match halves.(prt.(i)) with
      | Parent -> mask := !mask lor 1
      | LChild -> mask := !mask lor 2
      | RChild -> mask := !mask lor 4
      | Left -> mask := !mask lor 8
      | Right -> mask := !mask lor 16
      | Up -> mask := !mask lor 32
      | Down _ -> mask := !mask lor 64)
    done;
    let m = !mask in
    let has_parent = m land 1 <> 0 and has_lchild = m land 2 <> 0 in
    let has_rchild = m land 4 <> 0 and has_left = m land 8 <> 0 in
    let has_right = m land 16 <> 0 in
    let c = nl.color2 in
    (* one pairwise pass: 1a (self-loops, parallel edges), 1b (duplicate
       labels), d2 (duplicate far colors); one linear pass: fl (truthful
       replicated flags), d2 (replicated color, far color <> ours) *)
    let fr = has_right and fle = has_left in
    let fc = has_lchild || has_rchild in
    for i = b to e - 1 do
      let hi = prt.(i) in
      let fari = hn.(hi lxor 1) in
      if fari = u then raise Bad_node;
      let f = t.half_flags.(hi) in
      if f.f_right <> fr || f.f_left <> fle || f.f_child <> fc then
        raise Bad_node;
      if t.half_color2.(hi) <> c then raise Bad_node;
      let ci = nodes.(fari).color2 in
      if ci = c then raise Bad_node;
      let li = halves.(hi) in
      for j = i + 1 to e - 1 do
        let hj = prt.(j) in
        let farj = hn.(hj lxor 1) in
        if fari = farj then raise Bad_node;
        if same_label li halves.(hj) then raise Bad_node;
        if ci = nodes.(farj).color2 then raise Bad_node
      done
    done;
    (match nl.kind with
    | Center ->
      (* c2a-c2d, 1d *)
      if d <> delta then raise Bad_node;
      (match nl.port with Some _ -> raise Bad_node | None -> ());
      for i = b to e - 1 do
        let h = prt.(i) in
        (match nodes.(hn.(h lxor 1)).kind with
        | Index k -> (
          match halves.(h) with
          | Down j -> if j <> k then raise Bad_node
          | Parent | LChild | RChild | Left | Right | Up -> raise Bad_node)
        | Center -> raise Bad_node);
        match halves.(h lxor 1) with
        | Up -> ()
        | Parent | LChild | RChild | Left | Right | Down _ -> raise Bad_node
      done;
      for i = b to e - 1 do
        for j = i + 1 to e - 1 do
          match
            ( nodes.(hn.(prt.(i) lxor 1)).kind,
              nodes.(hn.(prt.(j) lxor 1)).kind )
          with
          | Index a, Index b -> if a = b then raise Bad_node
          | (Center | Index _), _ -> ()
        done
      done
    | Index i ->
      (* 1c, 1d, 2a / 2b *)
      (match nl.port with
      | Some j -> if j <> i then raise Bad_node
      | None -> ());
      for k = b to e - 1 do
        let h = prt.(k) in
        let wk = nodes.(hn.(h lxor 1)).kind in
        let ml = halves.(h lxor 1) in
        match halves.(h) with
        | (Parent | LChild | RChild | Left | Right) as l -> (
          (match wk with
          | Index j -> if j <> i then raise Bad_node
          | Center -> raise Bad_node);
          match (l, ml) with
          | Left, Right
          | Right, Left
          | Parent, (RChild | LChild)
          | (LChild | RChild), Parent -> ()
          | (Left | Right | Parent | LChild | RChild | Up | Down _), _ ->
            raise Bad_node)
        | Up -> if not (is_center wk) then raise Bad_node
        | Down _ -> raise Bad_node
      done;
      (* 2c: u(LChild, Right, Parent) = u *)
      let w1 = follow_i halves off prt hn u LChild in
      if w1 >= 0 then begin
        let w2 = follow_i halves off prt hn w1 Right in
        if w2 >= 0 then begin
          let w3 = follow_i halves off prt hn w2 Parent in
          if w3 >= 0 && w3 <> u then raise Bad_node
        end
      end;
      (* 2d: u(Right, LChild, Left, Parent) = u *)
      let w1 = follow_i halves off prt hn u Right in
      if w1 >= 0 then begin
        let w2 = follow_i halves off prt hn w1 LChild in
        if w2 >= 0 then begin
          let w3 = follow_i halves off prt hn w2 Left in
          if w3 >= 0 then begin
            let w4 = follow_i halves off prt hn w3 Parent in
            if w4 >= 0 && w4 <> u then raise Bad_node
          end
        end
      end;
      (* 3a-3d *)
      let ph = half_find halves prt Parent b e in
      if ph >= 0 then begin
        let p = hn.(ph lxor 1) in
        let is_r, is_l =
          match halves.(ph lxor 1) with
          | RChild -> (true, false)
          | LChild -> (false, true)
          | Parent | Left | Right | Up | Down _ -> (false, false)
        in
        let p_right = has_half_i halves off prt p Right in
        let p_left = has_half_i halves off prt p Left in
        if (not has_right) <> ((not p_right) && is_r) then raise Bad_node;
        if (not has_left) <> ((not p_left) && is_l) then raise Bad_node;
        if (not has_right) && not is_r then raise Bad_node;
        if (not has_left) && not is_l then raise Bad_node
      end;
      (* 3e *)
      if
        (not has_right) && (not has_left)
        && not (has_lchild && has_rchild && root_labels halves prt b e)
      then raise Bad_node;
      (* 3f *)
      if has_rchild <> has_lchild then raise Bad_node;
      (* 3g *)
      if (not has_lchild) && not has_rchild then begin
        if
          not
            (childless halves off prt (follow_i halves off prt hn u Left)
            && childless halves off prt (follow_i halves off prt hn u Right))
        then raise Bad_node
      end;
      (* 3h *)
      let is_port = match nl.port with Some _ -> true | None -> false in
      if is_port <> ((not has_right) && (not has_lchild) && not has_rchild)
      then raise Bad_node;
      (* c1 *)
      if (not has_parent) && center_count nodes prt hn b e 0 <> 1 then
        raise Bad_node);
    false
  with Bad_node -> true

let node_bad ~delta (t : Labels.t) u =
  let g = t.graph in
  bad_at ~delta t (G.ports_off g) (G.ports_flat g) (G.half_node_flat g) u

let erring_nodes ~delta (t : Labels.t) =
  let g = t.graph in
  let off = G.ports_off g and prt = G.ports_flat g in
  let hn = G.half_node_flat g in
  Array.init (G.n g) (fun u -> bad_at ~delta t off prt hn u)
