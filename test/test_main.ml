(* The determinism suites sweep pool sizes to prove bit-identity under
   real worker execution; under the default dispatch rule a pool larger
   than the host's core count never dispatches and small test loops stay
   under the work cutoff, so the sweeps would pass vacuously. Turn on the
   test-only force switch (the dispatch-rule tests switch it off under
   their own bracket). *)
let () = Repro_local.Pool.set_force_dispatch true

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
