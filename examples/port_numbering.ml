(* The model behind the complexities: ports and real message passing.

   The paper's separations live in the LOCAL model with unique
   identifiers; this example shows the machinery underneath:
   (1) an algorithm written as a genuine send/receive state machine on
       the synchronous engine, and
   (2) the distributed 1-round checker that makes the problems "locally
       checkable" in the literal sense.

   Run with: dune exec examples/port_numbering.exe *)

module G = Core.Graph.Multigraph
module Gen = Core.Graph.Generators
module Instance = Core.Local.Instance
module MP = Core.Local.Message_passing
module Frontier = Core.Local.Frontier
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
    verdict.DC.rounds verdict.DC.all_accept

