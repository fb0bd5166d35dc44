module G = Repro_graph.Multigraph
open Labels

type pointer = PRight | PLeft | PParent | PRChild | PUp | PDown of int

type out = Ok | Error | Ptr of pointer

let pp_out fmt = function
  | Ok -> Format.pp_print_string fmt "Ok"
  | Error -> Format.pp_print_string fmt "Error"
  | Ptr PRight -> Format.pp_print_string fmt "->Right"
  | Ptr PLeft -> Format.pp_print_string fmt "->Left"
  | Ptr PParent -> Format.pp_print_string fmt "->Parent"
  | Ptr PRChild -> Format.pp_print_string fmt "->RChild"
  | Ptr PUp -> Format.pp_print_string fmt "->Up"
  | Ptr (PDown i) -> Format.fprintf fmt "->Down_%d" i

type violation = { node : int; rule : string }

let violations ~delta (t : Labels.t) (out : out array) =
  let g = t.graph in
  let bad = ref [] in
  let fail u rule = bad := { node = u; rule } :: !bad in
  for u = 0 to G.n g - 1 do
    let locally_bad = Check.node_bad ~delta t u in
    (* rule 2: Error exactly at local violations *)
    (match out.(u) with
    | Error -> if not locally_bad then fail u "2"
    | Ok | Ptr _ -> if locally_bad then fail u "2");
    (* rule mix: Ok only next to Ok *)
    (match out.(u) with
    | Ok ->
      List.iter
        (fun w -> if out.(w) <> Ok then fail u "mix")
        (G.neighbors g u)
    | Error | Ptr _ -> ());
    (* rule 3: pointer chains *)
    let target l = follow t u l in
    let expect rule l allowed =
      match target l with
      | None -> fail u rule
      | Some w -> (
        match out.(w) with
        | Error -> ()
        | o -> if not (List.mem o allowed) then fail u rule)
    in
    match out.(u) with
    | Ok | Error -> ()
    | Ptr PRight -> expect "3a" Right [ Ptr PRight ]
    | Ptr PLeft -> expect "3b" Left [ Ptr PLeft ]
    | Ptr PParent ->
      expect "3c" Parent [ Ptr PParent; Ptr PLeft; Ptr PRight; Ptr PUp ]
    | Ptr PRChild -> expect "3d" RChild [ Ptr PRChild; Ptr PRight; Ptr PLeft ]
    | Ptr PUp -> (
      match (t.nodes.(u).kind, target Up) with
      | Index i, Some w -> (
        match out.(w) with
        | Error -> ()
        | Ptr (PDown j) when j <> i -> ()
        | Ok | Ptr _ -> fail u "3e")
      | (Center | Index _), _ -> fail u "3e")
    | Ptr (PDown i) -> expect "3f" (Down i) [ Ptr PRChild ]
  done;
  List.rev !bad

let is_valid ~delta t out = violations ~delta t out = []
