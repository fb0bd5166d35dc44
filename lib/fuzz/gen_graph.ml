module G = Repro_graph.Multigraph
module Generators = Repro_graph.Generators

type shape = Any | Simple | Bipartite

type recipe = {
  r_n : int;
  r_max_deg : int;
  r_shape : shape;
  r_edges : (int * int) list;
}

(* interpret one proposal as concrete endpoints, or reject it *)
let resolve r (u, v) =
  let n = max 1 r.r_n in
  match r.r_shape with
  | Any -> Some (u mod n, v mod n)
  | Simple ->
    let u = u mod n and v = v mod n in
    if u = v then None else Some (u, v)
  | Bipartite ->
    if n < 2 then None
    else
      let a = (n + 1) / 2 in
      Some (u mod a, a + (v mod (n - a)))

let materialized_edges r =
  let n = max 1 r.r_n in
  let deg = Array.make n 0 in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun prop ->
      match resolve r prop with
      | None -> None
      | Some (u, v) ->
        let cost_u = if u = v then 2 else 1 in
        let fits =
          if u = v then deg.(u) + 2 <= r.r_max_deg
          else deg.(u) < r.r_max_deg && deg.(v) < r.r_max_deg
        in
        let key = (min u v, max u v) in
        let dup = r.r_shape <> Any && Hashtbl.mem seen key in
        if fits && not dup then begin
          deg.(u) <- deg.(u) + cost_u;
          if u <> v then deg.(v) <- deg.(v) + 1;
          Hashtbl.replace seen key ();
          Some (u, v)
        end
        else None)
    r.r_edges

let to_graph r = G.of_edges ~n:(max 1 r.r_n) (materialized_edges r)

let nodes_of r = max 1 r.r_n

let pp_shape fmt = function
  | Any -> Format.pp_print_string fmt "any"
  | Simple -> Format.pp_print_string fmt "simple"
  | Bipartite -> Format.pp_print_string fmt "bipartite"

let pp_recipe fmt r =
  Format.fprintf fmt "{n=%d; max_deg=%d; %a; edges=[%s]}" (max 1 r.r_n)
    r.r_max_deg pp_shape r.r_shape
    (String.concat "; "
       (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (materialized_edges r)))

(* the proposals are drawn independently of [n] (they are read mod n
   anyway): were their count bound to [n], every shrink of [n] would
   regenerate the list and lose the failing edges *)
let gen ?(max_n = 40) ?(max_deg = 4) shape =
  let open Gen in
  let endpoint = int_range 0 (max_n - 1) in
  map2
    (fun (n, cap) edges ->
      { r_n = n; r_max_deg = cap; r_shape = shape; r_edges = edges })
    (pair (int_range 1 max_n) (int_range 1 max_deg))
    (list ~min:0 ~max:(2 * max_n) (pair endpoint endpoint))

type regular = { g_n : int; g_d : int; g_seed : int }

let regular_sizes r =
  let d = max 1 r.g_d in
  let n = max (d + 1) r.g_n in
  (* n·d must be even for the configuration model *)
  let n = if n * d mod 2 = 1 then n + 1 else n in
  (n, d)

let to_regular r =
  let n, d = regular_sizes r in
  Generators.random_regular (Random.State.make [| r.g_seed |]) ~n ~d

let to_simple_regular r =
  let n, d = regular_sizes r in
  Generators.random_simple_regular (Random.State.make [| r.g_seed |]) ~n ~d

let regular_nodes r = fst (regular_sizes r)

let pp_regular fmt r =
  let n, d = regular_sizes r in
  Format.fprintf fmt "{n=%d; d=%d; seed=%d}" n d r.g_seed

let gen_reg ?(max_n = 40) ?(min_d = 3) ?(max_d = 3) () =
  let open Gen in
  let* n = int_range 4 max_n in
  let* d = int_range min_d max_d in
  let* s = seed in
  return { g_n = n; g_d = d; g_seed = s }

let gen_regular = gen_reg
let gen_simple_regular = gen_reg
