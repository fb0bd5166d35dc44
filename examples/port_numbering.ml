(* The model behind the complexities: ports, views, covers, and real
   message passing.

   The paper's separations live in the LOCAL model with unique
   identifiers; this example shows the machinery underneath:
   (1) an algorithm written as a genuine send/receive state machine on
       the synchronous engine,
   (2) the distributed 1-round checker that makes the problems "locally
       checkable" in the literal sense, and
   (3) covers and view trees: why, without identifiers, symmetric
       instances are hopeless — every fiber of a lift is forced to answer
       identically.

   Run with: dune exec examples/port_numbering.exe *)

module G = Core.Graph.Multigraph
module Gen = Core.Graph.Generators
module Covers = Core.Graph.Covers
module Instance = Core.Local.Instance
module MP = Core.Local.Message_passing
module Frontier = Core.Local.Frontier
module VT = Core.Local.View_tree
module DC = Core.Lcl.Distributed_check
module SO = Core.Problems.Sinkless_orientation

(* a message-passing algorithm: propose-and-settle edge orientation.
   Each node proposes its smallest-id undecided port; an edge is oriented
   when exactly one side proposes it. Rounds until every deg>=3 node has
   an out-edge. (A toy — the library's real solvers are smarter.) *)
let toy_orientation : (int * bool array, int, bool array) MP.algorithm =
  {
    MP.init = (fun inst v -> (Instance.id inst v, [||]));
    send = (fun (id, _) ~round:_ ~port:_ -> id);
    receive =
      (fun (id, _) ~round msgs ->
        (* orient each edge toward the larger id; out-edge on port p iff
           our id is smaller *)
        ignore round;
        let out = Array.map (fun far_id -> id < far_id) msgs in
        Either.Right out);
  }

let () =
  Printf.printf "== 1. a real message-passing run ==\n";
  let rng = Random.State.make [| 1 |] in
  let g = Gen.random_simple_regular rng ~n:12 ~d:3 in
  let inst = Instance.create g in
  let result = Frontier.run inst toy_orientation in
  Printf.printf "toy orientation finished in %d round(s)\n"
    result.Frontier.max_rounds;
  let sinks =
    Array.to_list result.Frontier.outputs
    |> List.filter (fun out -> not (Array.exists (fun b -> b) out))
    |> List.length
  in
  Printf.printf "sinks under id-orientation: %d (the max-id node)\n" sinks;

  Printf.printf "\n== 2. the distributed checker ==\n";
  let big = SO.hard_instance rng ~n:2000 in
  let binst = Instance.create big in
  let out, _ = SO.solve_deterministic binst in
  let verdict = DC.run SO.problem binst ~input:(SO.trivial_input big) ~output:out in
  Printf.printf "solution checked distributedly in %d round: all accept = %b\n"
    verdict.DC.rounds verdict.DC.all_accept;

  Printf.printf "\n== 3. covers: the anonymous lower-bound machinery ==\n";
  let k4 = Gen.complete 4 in
  let lift, phi = Covers.cyclic_lift k4 ~k:3 ~shift:(fun e -> e) in
  Printf.printf "3-lift of K4 (12 nodes) covers K4: %b\n"
    (Covers.is_covering_map ~cover:lift ~base:k4 phi);
  let anon r = snd (VT.classes lift ~payload:(fun _ -> ()) ~radius:r) in
  Printf.printf "anonymous view classes at radius 1, 3, 5: %d, %d, %d\n"
    (anon 1) (anon 3) (anon 5);
  Printf.printf
    "4 classes forever = the 4 fibers: an anonymous deterministic\n\
     algorithm can never treat two copies of the same base node\n\
     differently, no matter how many rounds it runs. Identifiers (or\n\
     randomness) are what break this — and how much randomness buys on\n\
     top of identifiers is exactly the paper's question.\n"
