module G = Repro_graph.Multigraph
open Labels

type violation = { node : int; rule : string }

let pp_violation fmt { node; rule } =
  Format.fprintf fmt "node %d violates %s" node rule

(* One kernel, [scan], evaluates every constraint at a node and calls
   [fail rule] once per violation, in rule order. [violations] passes a
   collector; [node_bad], [erring_nodes] and [is_valid] pass [raise_bad],
   which stops at the first violation. The verifier evaluates the
   per-node predicate once per node per prove call — by far the hottest
   checker path — so the scan must not allocate: no rule list, no
   intermediate label/color arrays. Everything below is a top-level
   function taking its state as explicit arguments: local closures and
   the [Some h] results of [Labels.half_with]/[follow] would otherwise
   dominate the prover's allocation (they did — see EXPERIMENTS.md's
   W-dispatch allocation table).

   The graph is walked through its raw CSR arrays, hoisted once per
   caller: [off] ([G.ports_off]), [prt] ([G.ports_flat]) and [hn]
   ([G.half_node_flat]), with [h lxor 1] for the mate. Libraries are
   compiled [-opaque] in the dev profile, so every [G.half_at] or
   [G.half_node] would be an out-of-line call; and labels, kinds and
   ports are compared by pattern match, because polymorphic [=] on
   [half_label], [node_kind] or [int option] is a [caml_equal] call
   (DESIGN.md §18). The differential oracle is the independently
   written [Check_ref] in test/kernel_ref.ml. *)

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

(* two of the far nodes across ports [b..e) are Index nodes sharing an
   index (c2d) *)
let shared_index (nodes : node_label array) prt hn b e =
  let dup = ref false in
  for i = b to e - 1 do
    for j = i + 1 to e - 1 do
      match
        (nodes.(hn.(prt.(i) lxor 1)).kind, nodes.(hn.(prt.(j) lxor 1)).kind)
      with
      | Index a, Index b -> if a = b then dup := true
      | (Center | Index _), _ -> ()
    done
  done;
  !dup

let scan ~delta (t : Labels.t) off prt hn u ~fail =
  let halves = t.halves and nodes = t.nodes in
  let b = off.(u) and e = off.(u + 1) in
  let nl = nodes.(u) in
  (* presence bitmask over the constant structural labels *)
  let mask = ref 0 in
  for i = b to e - 1 do
    match halves.(prt.(i)) with
    | Parent -> mask := !mask lor 1
    | LChild -> mask := !mask lor 2
    | RChild -> mask := !mask lor 4
    | Left -> mask := !mask lor 8
    | Right -> mask := !mask lor 16
    | Up | Down _ -> ()
  done;
  let m = !mask in
  let has_parent = m land 1 <> 0 and has_lchild = m land 2 <> 0 in
  let has_rchild = m land 4 <> 0 and has_left = m land 8 <> 0 in
  let has_right = m land 16 <> 0 in
  let c = nl.color2 in
  (* one pairwise pass records, as bits reported below in rule order:
     1a (self-loops, parallel edges), 1b (duplicate labels), fl
     (untruthful replicated flags — input well-formedness required by the
     node-edge encoding of §4.6), and the two d2 checks of the distance-2
     coloring input (§4.6; this is what convicts self-loops and parallel
     edges in the node-edge encoding): the replicated color is ours, and
     the far colors differ from ours and from each other *)
  let fc = has_lchild || has_rchild in
  let v = ref 0 in
  for i = b to e - 1 do
    let hi = prt.(i) in
    let fari = hn.(hi lxor 1) in
    if fari = u then v := !v lor 1;
    let f = t.half_flags.(hi) in
    if f.f_right <> has_right || f.f_left <> has_left || f.f_child <> fc then
      v := !v lor 4;
    if t.half_color2.(hi) <> c then v := !v lor 8;
    let ci = nodes.(fari).color2 in
    if ci = c then v := !v lor 16;
    let li = halves.(hi) in
    for j = i + 1 to e - 1 do
      let hj = prt.(j) in
      let farj = hn.(hj lxor 1) in
      if fari = farj then v := !v lor 1;
      if same_label li halves.(hj) then v := !v lor 2;
      if ci = nodes.(farj).color2 then v := !v lor 16
    done
  done;
  let v = !v in
  if v land 1 <> 0 then fail "1a";
  if v land 2 <> 0 then fail "1b";
  if v land 4 <> 0 then fail "fl";
  if v land 8 <> 0 then fail "d2";
  if v land 16 <> 0 then fail "d2";
  match nl.kind with
  | Center ->
    (* §4.3 constraint 2 *)
    if e - b <> delta then fail "c2a";
    for i = b to e - 1 do
      let h = prt.(i) in
      (match (nodes.(hn.(h lxor 1)).kind, halves.(h)) with
      | Index k, Down j when j = k -> ()
      | (Index _ | Center), _ -> fail "c2b");
      match halves.(h lxor 1) with
      | Up -> ()
      | Parent | LChild | RChild | Left | Right | Down _ -> fail "c2c"
    done;
    if shared_index nodes prt hn b e then fail "c2d";
    (match nl.port with Some _ -> fail "1d" | None -> ())
  | Index i ->
    (* 1c: neighbors along sub-gadget edges share the index; Up leads to
       the center; Down never appears on an Index node *)
    for k = b to e - 1 do
      let h = prt.(k) in
      let wk = nodes.(hn.(h lxor 1)).kind in
      match halves.(h) with
      | Parent | LChild | RChild | Left | Right -> (
        match wk with Index j -> if j <> i then fail "1c" | Center -> fail "1c")
      | Up -> if not (is_center wk) then fail "1c"
      | Down _ -> fail "1c"
    done;
    (* 1d: Port_j on an Index_i node forces i = j *)
    (match nl.port with Some j -> if j <> i then fail "1d" | None -> ());
    (* 2a / 2b: side labels of an edge match up *)
    for k = b to e - 1 do
      let h = prt.(k) in
      match (halves.(h), halves.(h lxor 1)) with
      | Left, Right
      | Right, Left
      | Parent, (RChild | LChild)
      | (LChild | RChild), Parent
      | (Up | Down _), _ -> ()
      | (Left | Right), _ -> fail "2a"
      | (Parent | LChild | RChild), _ -> fail "2b"
    done;
    (* 2c: u(LChild, Right, Parent) = u *)
    let w1 = follow_i halves off prt hn u LChild in
    if w1 >= 0 then begin
      let w2 = follow_i halves off prt hn w1 Right in
      if w2 >= 0 then begin
        let w3 = follow_i halves off prt hn w2 Parent in
        if w3 >= 0 && w3 <> u then fail "2c"
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
          if w4 >= 0 && w4 <> u then fail "2d"
        end
      end
    end;
    (* 3a / 3b: the right (left) boundary is exactly the chain of RChild
       (LChild) edges below a boundary parent: u lacks Right iff its
       parent lacks Right and u is the RChild (symmetrically for Left);
       3c / 3d: rightmost/leftmost nodes are the R/L children *)
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
      if (not has_right) <> ((not p_right) && is_r) then fail "3a";
      if (not has_left) <> ((not p_left) && is_l) then fail "3b";
      if (not has_right) && not is_r then fail "3c";
      if (not has_left) && not is_l then fail "3d"
    end;
    (* 3e: no Right and no Left => the root: exactly LChild, RChild
       (plus the Up edge to the center) *)
    if
      (not has_right) && (not has_left)
      && not (has_lchild && has_rchild && root_labels halves prt b e)
    then fail "3e";
    (* 3f: children come in pairs *)
    if has_rchild <> has_lchild then fail "3f";
    (* 3g: the bottom boundary is a full level *)
    if
      (not has_lchild) && (not has_rchild)
      && not
           (childless halves off prt (follow_i halves off prt hn u Left)
           && childless halves off prt (follow_i halves off prt hn u Right))
    then fail "3g";
    (* 3h: ports are exactly the bottom-right nodes *)
    let is_port = match nl.port with Some _ -> true | None -> false in
    if is_port <> ((not has_right) && (not has_lchild) && not has_rchild) then
      fail "3h";
    (* §4.3 constraint 1: parentless sub-gadget nodes hang off exactly one
       center *)
    if (not has_parent) && center_count nodes prt hn b e 0 <> 1 then fail "c1"

let node_violations ~delta (t : Labels.t) u =
  let g = t.graph in
  let bad = ref [] in
  scan ~delta t (G.ports_off g) (G.ports_flat g) (G.half_node_flat g) u
    ~fail:(fun rule -> bad := { node = u; rule } :: !bad);
  List.rev !bad

let violations ~delta (t : Labels.t) =
  List.concat_map (node_violations ~delta t) (List.init (G.n t.graph) Fun.id)

exception Bad_node

let raise_bad (_ : string) = raise_notrace Bad_node

let bad_at ~delta t off prt hn u =
  match scan ~delta t off prt hn u ~fail:raise_bad with
  | () -> false
  | exception Bad_node -> true

let node_bad ~delta (t : Labels.t) u =
  let g = t.graph in
  bad_at ~delta t (G.ports_off g) (G.ports_flat g) (G.half_node_flat g) u

let erring_nodes ~delta (t : Labels.t) =
  let g = t.graph in
  let off = G.ports_off g and prt = G.ports_flat g in
  let hn = G.half_node_flat g in
  Array.init (G.n g) (fun u -> bad_at ~delta t off prt hn u)

let is_valid ~delta (t : Labels.t) =
  let g = t.graph in
  let off = G.ports_off g and prt = G.ports_flat g in
  let hn = G.half_node_flat g in
  let rec from u =
    u >= G.n g || ((not (bad_at ~delta t off prt hn u)) && from (u + 1))
  in
  from 0
