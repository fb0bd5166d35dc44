(* The fuzz subsystem's own suite: PRNG and shrinker laws, replay and
   determinism contracts, the target registry, and the acceptance test
   for the differential oracles — a deliberately planted checker bug
   (Oracle.planted_bug) must be caught and shrunk to a tiny
   counterexample with a usable replay seed. *)

module Rng = Repro_fuzz.Rng
module Shrink = Repro_fuzz.Shrink
module Gen = Repro_fuzz.Gen
module Prop = Repro_fuzz.Prop
module Oracle = Repro_fuzz.Oracle
module Targets = Repro_fuzz.Targets
module Json = Repro_obs.Json
module GG = Repro_fuzz.Gen_graph
module G = Repro_graph.Multigraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* splittable PRNG *)

let test_rng_deterministic () =
  let draw t = List.init 20 (fun _ -> fst (Rng.next_int64 t)) in
  (* the state is immutable: drawing from equal states gives equal runs *)
  check "same seed, same stream" true
    (draw (Rng.of_seed 7) = draw (Rng.of_seed 7));
  check "different seeds differ" true
    (draw (Rng.of_seed 7) <> draw (Rng.of_seed 8))

let test_rng_split_independent () =
  let t = Rng.of_seed 7 in
  let l, r = Rng.split t in
  check "split streams differ" true (fst (Rng.next_int64 l) <> fst (Rng.next_int64 r));
  (* forked streams are reproducible and pairwise distinct *)
  let forks = List.init 10 (fun i -> fst (Rng.next_int64 (Rng.fork t i))) in
  check "forks reproducible" true
    (forks = List.init 10 (fun i -> fst (Rng.next_int64 (Rng.fork t i))));
  check "forks pairwise distinct" true
    (List.length (List.sort_uniq compare forks) = 10)

let test_rng_int_in_bounds () =
  let t = ref (Rng.of_seed 99) in
  for _ = 1 to 1000 do
    let v, t' = Rng.int_in !t ~lo:(-5) ~hi:17 in
    t := t';
    check "int_in bounds" true (v >= -5 && v <= 17)
  done

(* ------------------------------------------------------------------ *)
(* shrinking: failures reach the boundary of the law *)

let run_shrunk ?(count = 200) ?(seed = 42) prop =
  match (Prop.run ~count ~seed prop).Prop.r_failure with
  | None -> Alcotest.fail "property unexpectedly passed"
  | Some f -> f

let test_shrink_int_to_boundary () =
  let p =
    Prop.make ~name:"x < 10" ~show:string_of_int (Gen.int_range 0 1000)
      (Prop.law_bool (fun x -> x < 10))
  in
  let f = run_shrunk p in
  (* integrated shrinking must land exactly on the smallest violation *)
  check_str "minimal counterexample" "10" f.Prop.f_case

let test_shrink_pair_to_boundary () =
  let p =
    Prop.make ~name:"sum < 12"
      ~show:(fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
      (Gen.pair (Gen.int_range 0 100) (Gen.int_range 0 100))
      (Prop.law_bool (fun (a, b) -> a + b < 12))
  in
  let f = run_shrunk p in
  (* the shrunk pair must still violate and sit on the boundary *)
  Scanf.sscanf f.Prop.f_case "(%d,%d)" (fun a b ->
      check_int "boundary sum" 12 (a + b))

let test_shrink_list_to_singleton () =
  let p =
    Prop.make ~name:"no element > 50"
      ~show:(fun l -> String.concat "," (List.map string_of_int l))
      (Gen.list ~min:0 ~max:15 (Gen.int_range 0 100))
      (Prop.law_bool (List.for_all (fun x -> x <= 50)))
  in
  let f = run_shrunk p in
  check_str "single minimal element" "51" f.Prop.f_case

(* a graph recipe shrinks to the minimum: on multigraphs, "no
   self-loop" must shrink to one node carrying one loop. This needs the
   edge proposals drawn independently of the node count — otherwise each
   shrink of n regenerates the edges and loses the loop. *)
let test_shrink_recipe_to_one_loop () =
  let no_loop r =
    let loop = ref false in
    G.iter_edges (GG.to_graph r) ~f:(fun _ u v -> if u = v then loop := true);
    not !loop
  in
  let p =
    Prop.make ~name:"no self-loop" ~size_of:GG.nodes_of
      ~show:(Format.asprintf "%a" GG.pp_recipe)
      (GG.gen GG.Any) (Prop.law_bool no_loop)
  in
  for seed = 1 to 20 do
    let f = run_shrunk ~seed p in
    check_int
      (Printf.sprintf "seed %d shrunk to one node: %s" seed f.Prop.f_case)
      1
      (Option.value ~default:(-1) f.Prop.f_size)
  done

(* ------------------------------------------------------------------ *)
(* runner contracts: determinism and replay *)

let test_case_seed_identity () =
  check_int "case 0 replays the run seed" 42 (Prop.case_seed 42 0);
  check "derived seeds distinct" true
    (let l = List.init 100 (Prop.case_seed 42) in
     List.length (List.sort_uniq compare l) = 100);
  check "derived seeds non-negative" true
    (List.for_all (fun i -> Prop.case_seed 42 i >= 0) (List.init 100 Fun.id))

let failing_prop =
  Prop.make ~name:"x < 900" ~show:string_of_int (Gen.int_range 0 1000)
    (Prop.law_bool (fun x -> x < 900))

let test_run_deterministic () =
  let a = Prop.run ~count:100 ~seed:5 failing_prop in
  let b = Prop.run ~count:100 ~seed:5 failing_prop in
  check "identical reports" true (a = b);
  let c = Prop.run ~count:100 ~seed:6 failing_prop in
  check "seed is load-bearing" true (a.Prop.r_seed <> c.Prop.r_seed)

let test_replay_reproduces () =
  let f = run_shrunk ~count:100 ~seed:5 failing_prop in
  (* one case at the reported replay seed regenerates the same failure *)
  let r = Prop.run ~count:1 ~seed:f.Prop.f_replay_seed failing_prop in
  match r.Prop.r_failure with
  | None -> Alcotest.fail "replay seed did not reproduce the failure"
  | Some f' ->
    check_str "same shrunk counterexample" f.Prop.f_case f'.Prop.f_case;
    check_int "replay case index 0" 0 f'.Prop.f_index

(* ------------------------------------------------------------------ *)
(* target registry *)

let test_targets_registered () =
  Alcotest.(check (list string))
    "exactly the documented nine, in order"
    [ "so"; "colorful"; "two-coloring"; "dcheck"; "engines"; "engine-vs-boxed";
      "gadget"; "padding"; "provenance" ]
    Targets.names;
  check "unknown name rejected" true (Targets.find "nonesuch" = None)

let test_targets_pass_and_deterministic () =
  List.iter
    (fun t ->
      let a = Targets.run t ~count:25 ~seed:42 in
      (match a.Prop.r_failure with
      | None -> ()
      | Some _ ->
        Alcotest.fail
          (Format.asprintf "target %s: %a" t.Targets.t_name Prop.pp_report a));
      let b = Targets.run t ~count:25 ~seed:42 in
      check (t.Targets.t_name ^ " deterministic") true (a = b))
    Targets.all

let test_json_summary_round_trips () =
  let reports =
    List.map (fun t -> Targets.run t ~count:5 ~seed:42) Targets.all
  in
  let doc = Targets.json_summary ~seed:42 ~count:5 reports in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.fail ("summary does not re-parse: " ^ e)
  | Ok j ->
    check "schema tag" true
      (Json.member "schema" j = Some (Json.String "repro-fuzz/1"));
    check "all ok" true (Json.member "ok" j = Some (Json.Bool true))

(* ------------------------------------------------------------------ *)
(* acceptance: a planted checker bug is caught, shrunk small, replayable *)

let with_planted_bug bug f =
  let saved = !Oracle.planted_bug in
  Fun.protect
    ~finally:(fun () -> Oracle.planted_bug := saved)
    (fun () ->
      Oracle.planted_bug := Some bug;
      f ())

let test_planted_bug_caught_and_shrunk () =
  check "bug name registered" true
    (List.mem "so-edge-clause" Oracle.known_bugs);
  with_planted_bug "so-edge-clause" @@ fun () ->
  let t =
    match Targets.find "dcheck" with
    | Some t -> t
    | None -> Alcotest.fail "dcheck target missing"
  in
  let r = Targets.run t ~count:200 ~seed:42 in
  match r.Prop.r_failure with
  | None -> Alcotest.fail "planted so-edge-clause bug was not caught"
  | Some f ->
    (* the acceptance bar: shrunk to a counterexample of at most 12
       nodes, with a replay seed that reproduces it *)
    (match f.Prop.f_size with
    | None -> Alcotest.fail "no size metric on the counterexample"
    | Some size ->
      check ("shrunk to <= 12 nodes, got " ^ string_of_int size) true
        (size <= 12));
    check "reason names the disagreement" true
      (String.length f.Prop.f_reason > 0);
    let replay = Targets.run t ~count:1 ~seed:f.Prop.f_replay_seed in
    (match replay.Prop.r_failure with
    | None -> Alcotest.fail "replay seed did not reproduce the bug"
    | Some f' ->
      check_str "replay reaches the same counterexample" f.Prop.f_case
        f'.Prop.f_case)

let test_planted_bug_off_by_default () =
  check "no bug planted in normal runs" true (!Oracle.planted_bug = None
                                              || Sys.getenv_opt "REPRO_FUZZ_BREAK" <> None)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng split/fork independent", `Quick, test_rng_split_independent);
    ("rng int_in bounds", `Quick, test_rng_int_in_bounds);
    ("shrink int to boundary", `Quick, test_shrink_int_to_boundary);
    ("shrink pair to boundary", `Quick, test_shrink_pair_to_boundary);
    ("shrink list to singleton", `Quick, test_shrink_list_to_singleton);
    ("shrink graph recipe to one loop", `Quick, test_shrink_recipe_to_one_loop);
    ("case_seed contract", `Quick, test_case_seed_identity);
    ("runs deterministic", `Quick, test_run_deterministic);
    ("replay reproduces", `Quick, test_replay_reproduces);
    ("targets registered", `Quick, test_targets_registered);
    ("all targets pass, deterministically", `Slow, test_targets_pass_and_deterministic);
    ("json summary round-trips", `Quick, test_json_summary_round_trips);
    ("planted bug caught, shrunk, replayable", `Slow, test_planted_bug_caught_and_shrunk);
    ("planted bug off by default", `Quick, test_planted_bug_off_by_default);
  ]
