(* Determinism suite for the multicore execution layer: every solver and
   engine entry point must produce bit-identical results for every pool
   size (the Pool determinism contract), plus chunking edge cases and
   pool mechanics. *)

module G = Repro_graph.Multigraph
module Gen = Repro_graph.Generators
module Pool = Repro_local.Pool
module Instance = Repro_local.Instance
module MP = Repro_local.Message_passing
module Frontier = Repro_local.Frontier
module Audit = Repro_local.Audit
module DC = Repro_lcl.Distributed_check
module SO = Repro_problems.Sinkless_orientation
module Coloring = Repro_problems.Coloring
module Mis = Repro_problems.Mis
module Matching = Repro_problems.Matching
module GB = Repro_gadget.Build
module GL = Repro_gadget.Labels
module Corrupt = Repro_gadget.Corrupt
module V = Repro_gadget.Verifier
module NP = Repro_gadget.Ne_psi
module Labeling = Repro_lcl.Labeling
module Ne_lcl = Repro_lcl.Ne_lcl
module Spec = Repro_padding.Spec
module PT = Repro_padding.Padded_types
module Pi = Repro_padding.Pi_prime
module H = Repro_padding.Hierarchy

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let sizes = [ 2; 4 ]

(* the sum of the indices in [lo, hi) *)
let index_sum lo hi = ((hi * (hi - 1)) - (lo * (lo - 1))) / 2

(* run [compute] sequentially, then at 2 and 4 domains, and require
   structural equality of the results; always restores size 1 *)
let across_sizes name compute =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 1;
      let base = compute () in
      List.iter
        (fun s ->
          Pool.set_size s;
          check (Printf.sprintf "%s: %d domains = sequential" name s) true
            (base = compute ()))
        sizes)

(* ------------------------------------------------------------------ *)
(* pool mechanics                                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_for_covers () =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      List.iter
        (fun s ->
          Pool.set_size s;
          (* n = 0, n < domain count, n < cutoff, chunk boundaries *)
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              Pool.parallel_for ~n (fun i -> hits.(i) <- hits.(i) + 1);
              for i = 0 to n - 1 do
                check_int (Printf.sprintf "size %d n %d hit %d" s n i) 1
                  hits.(i)
              done)
            [ 0; 1; 2; 3; 15; 16; 17; 100; 1000 ])
        (1 :: sizes))

let test_chunk_edge_cases () =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 4;
      (* the layout is clamped between one chunk per domain and 16 per
         domain; a tiny grain asks for the fewest chunks, a huge one for
         the most *)
      let covers ~grain n =
        let hits = Array.make n 0 in
        Pool.parallel_for ~grain ~n (fun i -> hits.(i) <- hits.(i) + 1);
        Array.for_all (fun c -> c = 1) hits
      in
      (* one chunk per domain: the last one short *)
      check "one chunk per domain covers" true (covers ~grain:1 22);
      (* chunks of one index: more chunks than domains *)
      check "chunk = 1 covers" true (covers ~grain:1_000_000 33);
      (* at the 16-chunks-per-domain clamp, with a ragged tail *)
      check "chunk clamp covers" true (covers ~grain:1_000_000 1001);
      (* n smaller than the domain count (and under the force switch's
         16-index floor, so it runs inline) *)
      check "n < domains covers" true (covers ~grain:1_000_000 2))

let test_tabulate () =
  across_sizes "tabulate" (fun () ->
      Pool.tabulate 777 (fun i -> (i * i) - (3 * i)))

let test_exception_propagates () =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 4;
      check "body exception reraised" true
        (try
           Pool.parallel_for ~n:1000 (fun i ->
               if i = 500 then failwith "boom");
           false
         with Failure m -> m = "boom");
      check "sum body exception reraised" true
        (try
           ignore
             (Pool.parallel_sum ~n:1000 (fun lo hi ->
                  if lo <= 500 && 500 < hi then failwith "bang";
                  hi - lo));
           false
         with Failure m -> m = "bang");
      (* the pool survives a failed job *)
      let sum = Pool.parallel_sum ~n:100 index_sum in
      check_int "pool usable after failure" 4950 sum)

let test_nested_falls_back () =
  Fun.protect
    ~finally:(fun () -> Pool.set_size 1)
    (fun () ->
      Pool.set_size 2;
      let hits = Array.make 4096 0 in
      Pool.parallel_for ~n:64 (fun i ->
          (* a loop issued from inside a running body must degrade to a
             sequential loop, not deadlock *)
          Pool.parallel_for ~n:64 (fun j ->
              let k = (64 * i) + j in
              hits.(k) <- hits.(k) + 1));
      check "nested loops cover" true (Array.for_all (fun c -> c = 1) hits))

(* ------------------------------------------------------------------ *)
(* engine and solver equality                                         *)
(* ------------------------------------------------------------------ *)

let so_instance ?(n = 120) ?(seed = 3) () =
  let rng = Random.State.make [| 41 + n + seed |] in
  Instance.create ~seed (SO.hard_instance rng ~n)

let test_engine_equal () =
  (* id-flooding eccentricity: states are lists, exercises send/receive *)
  let ecc : (int list * int, int list, int) MP.algorithm =
    {
      MP.init = (fun inst v -> ([ Instance.id inst v ], 0));
      send = (fun (known, _) ~round:_ ~port:_ -> known);
      receive =
        (fun (known, stable) ~round:_ msgs ->
          let fresh =
            Array.fold_left
              (fun acc l ->
                List.filter (fun x -> not (List.mem x known)) l @ acc)
              [] msgs
            |> List.sort_uniq compare
          in
          if fresh = [] then Either.Right stable
          else Either.Left (fresh @ known, stable + 1));
    }
  in
  across_sizes "engine ecc" (fun () ->
      let r = Frontier.run (so_instance ~n:60 ()) ecc in
      (r.Frontier.outputs, r.Frontier.rounds, r.Frontier.max_rounds))

let test_flood_gather_equal () =
  across_sizes "flood_gather" (fun () ->
      MP.flood_gather (so_instance ~n:60 ()) ~radius:4 (fun v -> v))

let test_so_deterministic_equal () =
  across_sizes "so det" (fun () -> SO.solve_deterministic (so_instance ()))

let test_so_randomized_equal () =
  across_sizes "so rand" (fun () -> SO.solve_randomized (so_instance ()))

let mixed_graph () =
  let rng = Random.State.make [| 97 |] in
  Gen.random_simple_regular rng ~n:90 ~d:4

let test_coloring_equal () =
  across_sizes "coloring" (fun () ->
      Coloring.solve (Instance.create (mixed_graph ())))

let test_mis_equal () =
  across_sizes "mis" (fun () -> Mis.solve (Instance.create (mixed_graph ())))

let test_matching_equal () =
  across_sizes "matching" (fun () ->
      Matching.solve (Instance.create (mixed_graph ())))

let test_two_coloring_equal () =
  (* the global-complexity row: an even cycle plus a bipartite random
     instance, both must be pool-size invariant *)
  let cycle = Repro_problems.Two_coloring.hard_instance ~n:64 in
  across_sizes "two-coloring cycle" (fun () ->
      Repro_problems.Two_coloring.solve (Instance.create ~seed:9 cycle));
  let tree = Gen.balanced_tree ~arity:2 ~height:5 in
  across_sizes "two-coloring tree" (fun () ->
      Repro_problems.Two_coloring.solve (Instance.create ~seed:11 tree))

let test_verifier_equal () =
  let delta = 3 in
  let valid = GB.gadget ~delta ~height:5 in
  let rng = Random.State.make [| 13 |] in
  let corrupted, _ = Corrupt.random rng valid in
  List.iter
    (fun (label, gadget) ->
      across_sizes
        (Printf.sprintf "verifier %s" label)
        (fun () ->
          V.run ~delta ~n:(G.n gadget.GL.graph) gadget))
    [ ("valid", valid); ("corrupted", corrupted) ]

let test_distributed_check_equal () =
  let inst = so_instance ~n:100 () in
  let g = inst.Instance.graph in
  let out, _ = SO.solve_deterministic inst in
  across_sizes "distributed check" (fun () ->
      let v = DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out in
      (v.DC.accepts, v.DC.all_accept, v.DC.rounds))

(* ------------------------------------------------------------------ *)
(* dispatch rule: invariance, oversubscription, arming                *)
(* ------------------------------------------------------------------ *)

module Obs = Repro_obs

(* run [f] with free rein over the dispatch knobs, restoring the
   suite-wide configuration (size 1, force switch on as test_main armed
   it) however [f] exits *)
let with_dispatch_config f =
  Fun.protect
    ~finally:(fun () ->
      Pool.set_size 1;
      Pool.set_force_dispatch true)
    f

(* every (force, size) cell the invariance tests sweep *)
let dispatch_cells =
  List.concat_map
    (fun force -> List.map (fun s -> (force, s)) [ 1; 2; 4 ])
    [ true; false ]

let cell_name (force, s) =
  Printf.sprintf "%s/size %d" (if force then "forced" else "rule") s

let test_dispatch_invariance () =
  (* the dispatch rule and the force switch may move work between
     domains, never change a result *)
  let inst = so_instance ~n:120 () in
  let g = inst.Instance.graph in
  let compute () =
    let out, rounds = SO.solve_deterministic inst in
    let v = DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out in
    (out, rounds, v.DC.accepts, v.DC.all_accept, v.DC.rounds)
  in
  with_dispatch_config (fun () ->
      Pool.set_size 1;
      let base = compute () in
      List.iter
        (fun ((force, s) as cell) ->
          Pool.set_size s;
          Pool.set_force_dispatch force;
          check
            (Printf.sprintf "%s = sequential" (cell_name cell))
            true
            (base = compute ()))
        dispatch_cells)

(* [parallel_range] and [parallel_sum] hand out disjoint nonempty ranges
   that cover [0, n) exactly once in every dispatch cell; an inline loop
   is the one range [0, n). The sizes sit around the chunk sizes of both
   grains (a default-grain chunk aims at 200 indices, a grain-1000 one
   at 20, both clamped by the pool size), around the force switch's
   16-index floor, and at 0 and 1. *)
let test_range_covers () =
  with_dispatch_config (fun () ->
      List.iter
        (fun ((force, s) as cell) ->
          Pool.set_size s;
          Pool.set_force_dispatch force;
          List.iter
            (fun grain ->
              List.iter
                (fun n ->
                  (* [run body] runs one loop over [0, n) that calls
                     [body lo hi] on each of its ranges *)
                  let covers loop run =
                    let hits = Array.make (max n 1) 0 in
                    let calls = Atomic.make 0 and malformed = Atomic.make 0 in
                    run (fun lo hi ->
                        Atomic.incr calls;
                        if not (0 <= lo && lo < hi && hi <= n) then
                          Atomic.incr malformed
                        else
                          for i = lo to hi - 1 do
                            hits.(i) <- hits.(i) + 1
                          done);
                    let what =
                      Printf.sprintf "%s %s grain %s n %d" loop
                        (cell_name cell)
                        (Option.fold ~none:"default" ~some:string_of_int grain)
                        n
                    in
                    check_int (what ^ ": malformed ranges") 0
                      (Atomic.get malformed);
                    check (what ^ ": every index once") true
                      (Array.for_all (fun c -> c = 1) (Array.sub hits 0 n));
                    let calls = Atomic.get calls in
                    if n = 0 then check_int (what ^ ": no call") 0 calls;
                    if s = 1 && n > 0 then
                      check_int (what ^ ": one inline range") 1 calls
                  in
                  covers "parallel_range" (fun body ->
                      Pool.parallel_range ?grain ~n body);
                  covers "parallel_sum" (fun body ->
                      let total =
                        Pool.parallel_sum ?grain ~n (fun lo hi ->
                            body lo hi;
                            index_sum lo hi)
                      in
                      check_int
                        (Printf.sprintf "parallel_sum %s n %d: total"
                           (cell_name cell) n)
                        (index_sum 0 n) total))
                [
                  0; 1; 2; 15; 16; 17; 19; 20; 21; 39; 40; 41; 199; 200; 201;
                  399; 400; 401; 1000;
                ])
            [ None; Some 1000 ])
        dispatch_cells)

(* the Π² constraint sweep's bad lists on a corrupted output are the
   same in every dispatch cell: the sweep's per-range slot lookup moves
   no verdict *)
let test_pi2_sweep_invariance () =
  let pi2 = Pi.pad H.sinkless_orientation in
  let g, input =
    pi2.Spec.hard_instance (Random.State.make [| 4 |]) ~target:400
  in
  let out, _ = pi2.Spec.solve_det (Instance.create ~seed:4 g) input in
  (* PortErr flags moved at some nodes, bad-edge claims at some halves *)
  let output = Labeling.copy out in
  let rng = Random.State.make [| 29 |] in
  for _ = 1 to 6 do
    let v = Random.State.int rng (G.n g) in
    let o = output.Labeling.v.(v) in
    output.Labeling.v.(v) <-
      {
        o with
        PT.perr =
          (match o.PT.perr with
          | PT.NoPortErr -> PT.PortErr1
          | PT.PortErr1 -> PT.PortErr2
          | PT.PortErr2 -> PT.NoPortErr);
      };
    let h = Random.State.int rng (2 * G.m g) in
    output.Labeling.b.(h) <-
      Option.map
        (fun ho -> { ho with NP.bad_edge = true })
        output.Labeling.b.(h)
  done;
  let sweep () = Ne_lcl.sweep pi2.Spec.problem g ~input ~output in
  with_dispatch_config (fun () ->
      Pool.set_size 1;
      let base = sweep () in
      check "bad nodes found" true (base.Ne_lcl.bad_nodes <> []);
      check "bad edges found" true (base.Ne_lcl.bad_edges <> []);
      List.iter
        (fun ((force, s) as cell) ->
          Pool.set_size s;
          Pool.set_force_dispatch force;
          check
            (Printf.sprintf "%s: bad lists = sequential" (cell_name cell))
            true
            (base = sweep ()))
        dispatch_cells)

let test_dispatch_obs_invariance () =
  (* the observability byte-identity half of the contract: deterministic
     trace projections and provenance certificates may not depend on the
     pool size or the dispatch decisions *)
  let inst = so_instance ~n:100 () in
  let g = inst.Instance.graph in
  let out, _ = SO.solve_deterministic inst in
  (* the checker plus an engine run, so the trace carries frontier
     round spans *)
  let flood = Audit.flood_algorithm ~actual:(fun v -> 1 + (v mod 3)) in
  let traced () =
    Fun.protect
      ~finally:(fun () -> Obs.Registry.disable ())
      (fun () ->
        snd
          (Obs.Trace.record ~label:"dispatch" ~n:(G.n g) (fun () ->
               ignore
                 (DC.run SO.problem inst ~input:(SO.trivial_input g) ~output:out);
               ignore (Frontier.run inst flood))))
  in
  let audited () =
    snd (DC.audited_run SO.problem inst ~input:(SO.trivial_input g) ~output:out)
  in
  with_dispatch_config (fun () ->
      Pool.set_size 1;
      let base_trace = traced () in
      let base_cert = audited () in
      check "base certificate ok" true base_cert.Obs.Provenance.c_ok;
      List.iter
        (fun ((force, s) as cell) ->
          Pool.set_size s;
          Pool.set_force_dispatch force;
          check
            (Printf.sprintf "trace projection %s" (cell_name cell))
            true
            (Obs.Trace.deterministic_equal base_trace (traced ()));
          check
            (Printf.sprintf "provenance cert %s" (cell_name cell))
            true
            (base_cert = audited ()))
        dispatch_cells)

let test_oversubscribed_inline () =
  (* a pool with more members than the host has cores only adds context
     switches, so the rule keeps even a large loop inline there *)
  let reg = Obs.Registry.default in
  let jobs = Obs.Registry.counter reg "local.pool.jobs" in
  let cutoff_inline = Obs.Registry.counter reg "local.pool.cutoff_inline" in
  with_dispatch_config (fun () ->
      Pool.set_size (Domain.recommended_domain_count () + 1);
      Pool.set_force_dispatch false;
      Fun.protect
        ~finally:(fun () -> Obs.Registry.disable ())
        (fun () ->
          Obs.Registry.enable ();
          let j0 = Obs.Counter.value jobs in
          let c0 = Obs.Counter.value cutoff_inline in
          let hits = Array.make 100_000 0 in
          Pool.parallel_for ~grain:1_000 ~n:100_000 (fun i ->
              hits.(i) <- hits.(i) + 1);
          check "covers" true (Array.for_all (fun c -> c = 1) hits);
          check_int "no job dispatched" j0 (Obs.Counter.value jobs);
          check_int "counted as cutoff-inline" (c0 + 1)
            (Obs.Counter.value cutoff_inline)))

let test_pool_counters_armed_per_job () =
  (* regression for the per-job arming latch: whether a job records
     chunk telemetry is decided once at dispatch, so a job dispatched
     while the registry is disarmed must leave every pool counter
     untouched, and an armed job must account each chunk and each index
     exactly once *)
  let reg = Obs.Registry.default in
  let chunks = Obs.Registry.counter reg "local.pool.chunks" in
  let par_idx = Obs.Registry.counter reg "local.pool.par_idx" in
  let chunk_ns = Obs.Registry.counter reg "local.pool.chunk_ns" in
  with_dispatch_config (fun () ->
      Pool.set_size 4;
      Pool.set_force_dispatch true;
      Fun.protect
        ~finally:(fun () -> Obs.Registry.disable ())
        (fun () ->
          Obs.Registry.disable ();
          let c0 = Obs.Counter.value chunks in
          let p0 = Obs.Counter.value par_idx in
          let t0 = Obs.Counter.value chunk_ns in
          (* a huge grain asks for the most chunks: 16 per domain *)
          Pool.parallel_for ~grain:1_000_000 ~n:512 (fun _ -> ());
          check_int "disarmed: chunks untouched" c0 (Obs.Counter.value chunks);
          check_int "disarmed: par_idx untouched" p0
            (Obs.Counter.value par_idx);
          check_int "disarmed: chunk_ns untouched" t0
            (Obs.Counter.value chunk_ns);
          Obs.Registry.enable ();
          let c1 = Obs.Counter.value chunks in
          let p1 = Obs.Counter.value par_idx in
          Pool.parallel_for ~grain:1_000_000 ~n:512 (fun _ -> ());
          Obs.Registry.disable ();
          check "armed: chunks advanced" true (Obs.Counter.value chunks > c1);
          check_int "armed: par_idx counts each index once" (p1 + 512)
            (Obs.Counter.value par_idx)))

(* Back-to-back dispatches that alternate loop sizes and primitives. Each
   loop is a fresh job, and a worker still holding the previous one must
   find it drained: every loop writes one shared hits array, so a chunk
   of an earlier loop run late, or a claim landing in the wrong loop,
   shows up as a miscount of the current one or as a stray hit past its
   end. The grain makes every size dispatch under the rule on a 2-core
   host (17 × 1000 ns is over the 4 µs cutoff). *)
(* under the force switch the dispatching domain runs no chunk of a
   dispatched loop, so every body call is on a worker domain; loops
   from the force switch's 16-index floor up *)
let test_forced_chunks_on_workers () =
  with_dispatch_config (fun () ->
      List.iter
        (fun s ->
          Pool.set_size s;
          Pool.set_force_dispatch true;
          List.iter
            (fun n ->
              let calls = Atomic.make 0 and on_caller = Atomic.make 0 in
              let note () =
                Atomic.incr calls;
                if Pool.worker_index () = 0 then Atomic.incr on_caller
              in
              Pool.parallel_range ~n (fun _ _ -> note ());
              Pool.parallel_for ~n (fun _ -> note ());
              ignore
                (Pool.parallel_sum ~grain:1_000 ~n (fun lo hi ->
                     note ();
                     hi - lo));
              check
                (Printf.sprintf "forced/size %d, n = %d: %d calls on workers" s
                   n (Atomic.get calls))
                true
                (Atomic.get calls >= 3 && Atomic.get on_caller = 0))
            [ 16; 17; 1_000; 100_000 ])
        [ 2; 4 ])

let test_back_to_back_dispatch () =
  let lens = [| 17; 1001; 64; 5000 |] in
  (* some arithmetic per index, so that workers wake in time to take
     chunks of the loop *)
  let work i =
    let x = ref i in
    for _ = 1 to 40 do
      x := ((!x * 31) + 7) land 0xffff
    done;
    ignore (Sys.opaque_identity !x)
  in
  let hits = Array.make 5000 0 in
  with_dispatch_config (fun () ->
      List.iter
        (fun ((force, s) as cell) ->
          Pool.set_size s;
          Pool.set_force_dispatch force;
          for k = 0 to 2047 do
            let n = lens.(k mod 4) in
            let what =
              Printf.sprintf "%s loop %d n %d" (cell_name cell) k n
            in
            Array.fill hits 0 5000 0;
            (* four parallel_for loops over the four sizes, then four
               parallel_sum loops, and so on *)
            if k land 4 = 0 then
              Pool.parallel_for ~grain:1000 ~n (fun i ->
                  work i;
                  hits.(i) <- hits.(i) + 1)
            else begin
              let total =
                Pool.parallel_sum ~grain:1000 ~n (fun lo hi ->
                    let acc = ref 0 in
                    for i = lo to hi - 1 do
                      work i;
                      hits.(i) <- hits.(i) + 1;
                      acc := !acc + (i * k) + 1
                    done;
                    !acc)
              in
              check_int (what ^ ": sum") ((k * index_sum 0 n) + n) total
            end;
            Array.iteri
              (fun i c ->
                if c <> Bool.to_int (i < n) then
                  Alcotest.failf "%s: index %d hit %d times" what i c)
              hits
          done)
        [ (true, 4); (false, 2) ])

let suite =
  [
    ("parallel_for covers every index once", `Quick, test_parallel_for_covers);
    ("chunking edge cases", `Quick, test_chunk_edge_cases);
    ("tabulate = Array.init", `Quick, test_tabulate);
    ("exceptions propagate, pool survives", `Quick, test_exception_propagates);
    ("nested loops fall back", `Quick, test_nested_falls_back);
    ("engine: outputs/rounds equal", `Quick, test_engine_equal);
    ("engine: flood_gather equal", `Quick, test_flood_gather_equal);
    ("SO deterministic equal", `Quick, test_so_deterministic_equal);
    ("SO randomized equal", `Quick, test_so_randomized_equal);
    ("coloring equal", `Quick, test_coloring_equal);
    ("MIS equal", `Quick, test_mis_equal);
    ("matching equal", `Quick, test_matching_equal);
    ("two-coloring equal", `Quick, test_two_coloring_equal);
    ("gadget verifier equal", `Quick, test_verifier_equal);
    ("distributed checker equal", `Quick, test_distributed_check_equal);
    ( "autotuner invariance across modes/sizes",
      `Quick,
      test_dispatch_invariance );
    ("autotuner trace/cert invariance", `Quick, test_dispatch_obs_invariance);
    ("parallel_range covers every index once", `Quick, test_range_covers);
    ("back-to-back dispatches", `Quick, test_back_to_back_dispatch);
    ("forced chunks run on workers", `Quick, test_forced_chunks_on_workers);
    ("pi2 sweep bad lists across cells", `Quick, test_pi2_sweep_invariance);
    ("oversubscribed pool stays inline", `Quick, test_oversubscribed_inline);
    ("pool counters armed per job", `Quick, test_pool_counters_armed_per_job);
  ]
