module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Instance = Repro_local.Instance
module Meter = Repro_local.Meter
module MP = Repro_local.Message_passing
module DC = Repro_lcl.Distributed_check
module Labeling = Repro_lcl.Labeling
module SO = Sinkless_orientation

type solved = { s_rounds : int; s_valid : bool; s_output : string }

type entry = {
  c_name : string;
  c_doc : string;
  c_solve : seed:int -> n:int -> solved;
}

let simple_regular seed n =
  let rng = Random.State.make [| seed |] in
  let g = Gen.random_simple_regular rng ~n ~d:3 in
  Instance.create ~seed g

let hard_so seed n =
  let rng = Random.State.make [| seed |] in
  let g = SO.hard_instance rng ~n in
  Instance.create ~seed g

(* canonical dump: a header naming the family and one line per node *)
let render ~name ~n ~seed ~rounds ~valid body =
  let buf = Buffer.create (64 + (8 * n)) in
  Buffer.add_string buf
    (Printf.sprintf "repro-solve/1 problem=%s n=%d seed=%d rounds=%d valid=%b\n"
       name n seed rounds valid);
  body buf;
  Buffer.contents buf

let membership_entry name doc solve is_valid =
  let c_solve ~seed ~n =
    let inst = simple_regular seed n in
    let g = inst.Instance.graph in
    let out, meter = solve inst in
    let rounds = Meter.max_radius meter in
    let valid = is_valid g out in
    let s_output =
      render ~name ~n:(G.n g) ~seed ~rounds ~valid (fun buf ->
          for v = 0 to G.n g - 1 do
            Buffer.add_string buf
              (Printf.sprintf "%d %d\n" v
                 (if out.Labeling.v.(v) then 1 else 0))
          done)
    in
    { s_rounds = rounds; s_valid = valid; s_output }
  in
  { c_name = name; c_doc = doc; c_solve }

let coloring_entry =
  let c_solve ~seed ~n =
    let inst = simple_regular seed n in
    let g = inst.Instance.graph in
    let out, meter = Coloring.solve inst in
    let rounds = Meter.max_radius meter in
    let valid = Coloring.is_valid g out in
    let s_output =
      render ~name:"coloring" ~n:(G.n g) ~seed ~rounds ~valid (fun buf ->
          for v = 0 to G.n g - 1 do
            Buffer.add_string buf
              (Printf.sprintf "%d %d\n" v out.Labeling.v.(v))
          done)
    in
    { s_rounds = rounds; s_valid = valid; s_output }
  in
  {
    c_name = "coloring";
    c_doc = "(Δ+1)-coloring on simple 3-regular";
    c_solve;
  }

let flood_radius = 3

let flood_entry =
  let c_solve ~seed ~n =
    let inst = simple_regular seed n in
    let g = inst.Instance.graph in
    let by_round =
      MP.flood_gather inst ~radius:flood_radius (fun v -> Instance.id inst v)
    in
    let s_output =
      render ~name:"flood" ~n:(G.n g) ~seed ~rounds:flood_radius ~valid:true
        (fun buf ->
          Array.iteri
            (fun v rs ->
              Array.iteri
                (fun r ids ->
                  Buffer.add_string buf (Printf.sprintf "%d %d:" v r);
                  List.iter
                    (fun id -> Buffer.add_string buf (Printf.sprintf " %d" id))
                    ids;
                  Buffer.add_char buf '\n')
                rs)
            by_round)
    in
    { s_rounds = flood_radius; s_valid = true; s_output }
  in
  {
    c_name = "flood";
    c_doc = "radius-3 id flooding on simple 3-regular";
    c_solve;
  }

let dcheck_entry =
  let c_solve ~seed ~n =
    let inst = hard_so seed n in
    let g = inst.Instance.graph in
    let output, _ = SO.solve_deterministic inst in
    let verdict =
      DC.run SO.problem inst ~input:(SO.trivial_input g) ~output
    in
    let s_output =
      render ~name:"dcheck" ~n:(G.n g) ~seed ~rounds:verdict.DC.rounds
        ~valid:verdict.DC.all_accept (fun buf ->
          Array.iteri
            (fun v a ->
              Buffer.add_string buf
                (Printf.sprintf "%d %d\n" v (if a then 1 else 0)))
            verdict.DC.accepts)
    in
    {
      s_rounds = verdict.DC.rounds;
      s_valid = verdict.DC.all_accept;
      s_output;
    }
  in
  {
    c_name = "dcheck";
    c_doc =
      "one-round distributed check of a deterministic SO solution on hard \
       instances";
    c_solve;
  }

let all =
  [
    membership_entry "mis" "maximal independent set via coloring sweep"
      Mis.solve Mis.is_valid;
    membership_entry "luby-mis" "Luby's randomized MIS" Luby.solve
      Luby.is_valid;
    coloring_entry;
    flood_entry;
    dcheck_entry;
  ]

let names = List.map (fun e -> e.c_name) all
let find name = List.find_opt (fun e -> e.c_name = name) all

let solve ~problem ~seed ~n =
  match find problem with
  | Some e -> Ok (e.c_solve ~seed ~n)
  | None ->
    Error
      (Printf.sprintf "unknown problem %S (known: %s)" problem
         (String.concat ", " names))
