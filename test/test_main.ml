(* The determinism suites sweep pool sizes to prove bit-identity under
   real worker execution; with the cost-aware cutoff in its default
   Auto policy a one-core CI host would never dispatch and the sweeps
   would pass vacuously. Force the pre-autotuner Always policy unless
   the environment asks for a specific one (the autotuner suite
   switches policies itself, under its own bracket). *)
let () =
  if Sys.getenv_opt "REPRO_POOL_CUTOFF" = None then
    Repro_local.Pool.set_dispatch_mode Repro_local.Pool.Always

let () =
  Alcotest.run "repro"
    [
      ("graph", Test_graph.suite);
      ("local", Test_local.suite);
      ("lcl", Test_lcl.suite);
      ("problems", Test_problems.suite);
      ("gadget", Test_gadget.suite);
      ("padding", Test_padding.suite);
      ("kernels", Test_kernels.suite);
      ("message-passing", Test_message_passing.suite);
      ("extra-problems", Test_extra_problems.suite);
      ("stats", Test_stats.suite);
      ("covers", Test_covers.suite);
      ("family", Test_family.suite);
      ("experiments", Test_experiments.suite);
      ("invariants", Test_invariants.suite);
      ("parallel", Test_parallel.suite);
      ("frontier", Test_frontier.suite);
      ("obs", Test_obs.suite);
      ("provenance", Test_provenance.suite);
      ("fuzz", Test_fuzz.suite);
      ("mutation", Test_mutation.suite);
      ("serve", Test_serve.suite);
      ("golden", Test_golden.suite);
    ]
