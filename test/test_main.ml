(* Aggregates every module's suites into one alcotest binary. *)

let () =
  Alcotest.run "ilp-based-engineering-change"
    (Test_util.tests @ Test_budget.tests @ Test_cnf.tests @ Test_ilp.tests @ Test_simplex.tests @ Test_ilpsolver.tests @ Test_sat.tests @ Test_core.tests @ Test_instances.tests @ Test_paper_examples.tests @ Test_harness.tests @ Test_coloring.tests @ Test_incremental.tests @ Test_cnfize.tests @ Test_preprocess.tests @ Test_totalizer.tests @ Test_maxsat.tests @ Test_weighted_preserving.tests @ Test_integration.tests @ Test_regressions.tests @ Test_robustness.tests @ Test_observability.tests @ Test_server.tests @ Test_cli.tests @ Test_config.tests @ Test_matrix.tests)
