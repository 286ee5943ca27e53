(* Aggregated alcotest entry point: one suite per library. *)

let () =
  Alcotest.run "bfdn"
    [
      Test_util.suite;
      Test_obs.suite;
      Test_trees.suite;
      Test_succinct.suite;
      Test_sim.suite;
      Test_partial_diff.suite;
      Test_bfdn.suite;
      Test_golden.suite;
      Test_equiv.suite;
      Test_urn.suite;
      Test_planner.suite;
      Test_graphs.suite;
      Test_rec.suite;
      Test_baselines.suite;
      Test_alloc.suite;
      Test_bounds.suite;
      Test_adversary.suite;
      Test_async.suite;
      Test_engine.suite;
      Test_scenario.suite;
      Test_faults.suite;
      Test_batch.suite;
      Test_serve.suite;
      Test_serve.memory_suite;
      Test_node_mem.suite;
    ]
