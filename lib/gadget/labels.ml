module G = Repro_graph.Multigraph

type node_kind = Center | Index of int

type half_label = Parent | LChild | RChild | Left | Right | Up | Down of int

type node_label = {
  kind : node_kind;
  port : int option;
  color2 : int;
}

type half_flags = {
  f_right : bool;
  f_left : bool;
  f_child : bool;
}

type t = {
  graph : G.t;
  nodes : node_label array;
  halves : half_label array;
  half_color2 : int array;
  half_flags : half_flags array;
}

(* by pattern match: polymorphic [=] on [half_label] (it has a
   non-constant constructor) is a [caml_equal] call *)
let equal_half_label (a : half_label) (b : half_label) =
  match (a, b) with
  | Parent, Parent | LChild, LChild | RChild, RChild -> true
  | Left, Left | Right, Right | Up, Up -> true
  | Down i, Down j -> i = j
  | (Parent | LChild | RChild | Left | Right | Up | Down _), _ -> false

let pp_half_label fmt = function
  | Parent -> Format.pp_print_string fmt "Parent"
  | LChild -> Format.pp_print_string fmt "LChild"
  | RChild -> Format.pp_print_string fmt "RChild"
  | Left -> Format.pp_print_string fmt "Left"
  | Right -> Format.pp_print_string fmt "Right"
  | Up -> Format.pp_print_string fmt "Up"
  | Down i -> Format.fprintf fmt "Down_%d" i

let pp_node_kind fmt = function
  | Center -> Format.pp_print_string fmt "Center"
  | Index i -> Format.fprintf fmt "Index_%d" i

let half_with t v l =
  let d = G.degree t.graph v in
  let rec find i =
    if i >= d then None
    else
      let h = G.half_at t.graph v i in
      if equal_half_label t.halves.(h) l then Some h else find (i + 1)
  in
  find 0

let has_half t v l = half_with t v l <> None

let follow t v l =
  match half_with t v l with
  | None -> None
  | Some h -> Some (G.half_node t.graph (G.mate h))

let rec follow_path t v = function
  | [] -> Some v
  | l :: rest -> (
    match follow t v l with
    | None -> None
    | Some w -> follow_path t w rest)

let color_ok t =
  let g = t.graph in
  let ok = ref true in
  (* halves replicate their node's color *)
  for h = 0 to (2 * G.m g) - 1 do
    if t.half_color2.(h) <> t.nodes.(G.half_node g h).color2 then ok := false
  done;
  (* distance-2 properness in the port sense the paper uses (§4.6):
     (i) every half's far color differs from its own node's color — this
     rules out self-loops; (ii) the far colors of a node's halves are
     pairwise distinct — this rules out parallel edges; (iii) nodes at
     distance exactly 2 have colors different from the center node's. *)
  for v = 0 to G.n g - 1 do
    let c = t.nodes.(v).color2 in
    let far = List.map (fun w -> t.nodes.(w).color2) (G.neighbors g v) in
    List.iter (fun fc -> if fc = c then ok := false) far;
    let sorted = List.sort compare far in
    let rec dup = function
      | a :: (b :: _ as rest) -> a = b || dup rest
      | _ -> false
    in
    if dup sorted then ok := false;
    List.iter
      (fun w ->
        List.iter
          (fun x -> if x <> v && t.nodes.(x).color2 = c then ok := false)
          (G.neighbors g w))
      (G.neighbors g v)
  done;
  !ok

let relabel_half t h l =
  let halves = Array.copy t.halves in
  halves.(h) <- l;
  { t with halves }

let relabel_node t v nl =
  let nodes = Array.copy t.nodes in
  nodes.(v) <- nl;
  (* keep half replication in sync with the color *)
  let half_color2 = Array.copy t.half_color2 in
  G.iter_halves t.graph v ~f:(fun h -> half_color2.(h) <- nl.color2);
  { t with nodes; half_color2 }

(* one pass over the raw CSR arrays, so that only the result record is
   allocated: every port half of a padded input labeling calls this *)
let true_flags t v =
  let off = G.ports_off t.graph and prt = G.ports_flat t.graph in
  let right = ref false and left = ref false and child = ref false in
  for i = off.(v) to off.(v + 1) - 1 do
    match t.halves.(prt.(i)) with
    | Right -> right := true
    | Left -> left := true
    | LChild | RChild -> child := true
    | Parent | Up | Down _ -> ()
  done;
  { f_right = !right; f_left = !left; f_child = !child }

let flags_ok t =
  let ok = ref true in
  for v = 0 to G.n t.graph - 1 do
    let f = true_flags t v in
    G.iter_halves t.graph v ~f:(fun h ->
        if t.half_flags.(h) <> f then ok := false)
  done;
  !ok

let with_truthful_flags t =
  let half_flags = Array.copy t.half_flags in
  for v = 0 to G.n t.graph - 1 do
    let f = true_flags t v in
    G.iter_halves t.graph v ~f:(fun h -> half_flags.(h) <- f)
  done;
  { t with half_flags }
