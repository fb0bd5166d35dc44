module G = Repro_graph.Multigraph
module Labeling = Repro_lcl.Labeling
module SO = Repro_problems.Sinkless_orientation
module Mis = Repro_problems.Mis
module Matching = Repro_problems.Matching

(* true with probability 1/k *)
let one_in rng k = Random.State.int rng k = 0

let flip_if rng k b = if one_in rng k then not b else b

(* the draws are sequenced by [let]s: the evaluation order of record
   fields is unspecified *)

let so rng g : SO.output =
  let out_first = Array.init (G.m g) (fun _ -> Random.State.bool rng) in
  let b =
    Array.init (2 * G.m g) (fun h ->
        let out = out_first.(G.edge_of_half h) = (h land 1 = 0) in
        if flip_if rng 8 out then SO.Out else SO.In)
  in
  { (SO.trivial_input g) with Labeling.b }

let coloring rng g : Repro_problems.Coloring.output =
  let delta = G.max_degree g in
  let v =
    Array.init (G.n g) (fun _ ->
        if one_in rng 16 then delta + 1 else Random.State.int rng (delta + 1))
  in
  { (Labeling.const g ~v:0 ~e:() ~b:()) with Labeling.v }

let mis rng g =
  let l = Mis.of_members g (Array.init (G.n g) (fun _ -> one_in rng 3)) in
  let v = Array.map (flip_if rng 16) l.Labeling.v in
  let b =
    Array.map
      (fun (x : Mis.half_out) ->
        let mine = flip_if rng 16 x.Mis.mine in
        { Mis.mine; claim = flip_if rng 16 x.Mis.claim })
      l.Labeling.b
  in
  { l with Labeling.v; b }

let matching rng g =
  let l = Matching.of_edges g (Array.init (G.m g) (fun _ -> one_in rng 3)) in
  let v = Array.map (flip_if rng 16) l.Labeling.v in
  let e = Array.map (flip_if rng 16) l.Labeling.e in
  { l with Labeling.v; e }
