let () =
  Alcotest.run "dcache"
    [
      ("prelude", Test_prelude.suite);
      ("pool", Test_pool.suite);
      ("core-types", Test_core_types.suite);
      ("validate", Test_validate.suite);
      ("offline-dp", Test_offline.suite);
      ("online-sc", Test_online.suite);
      ("baselines", Test_baselines.suite);
      ("spacetime", Test_spacetime.suite);
      ("simulation", Test_simulation.suite);
      ("workload", Test_workload.suite);
      ("hetero", Test_hetero.suite);
      ("multi-item", Test_multi.suite);
      ("predictive", Test_predictive.suite);
      ("streaming", Test_streaming.suite);
      ("solve-cache", Test_solve_cache.suite);
      ("viz", Test_viz.suite);
      ("obs", Test_obs.suite);
      ("audit", Test_audit.suite);
      ("invariants", Test_invariants.suite);
      ("lint", Test_lint.suite);
      ("sema", Test_sema.suite);
    ]
