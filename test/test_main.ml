(* Entry point: gathers every suite. Individual suites live in their own
   modules (test_relalg.ml, test_logic.ml, ...). *)

let () =
  Alcotest.run "braid"
    (Test_relalg.suites @ Test_stream.suites @ Test_logic.suites @ Test_caql.suites
   @ Test_syntax.suites @ Test_remote.suites @ Test_subsume.suites @ Test_cache.suites @ Test_advice.suites
   @ Test_planner.suites @ Test_ie.suites @ Test_system.suites @ Test_props.suites
   @ Test_workload.suites @ Test_repl.suites @ Test_faults.suites @ Test_shard.suites
   @ Test_check.suites @ Test_serve.suites @ Test_ivm.suites @ Test_obs.suites @ Test_docs.suites
   @ Test_experiments.suites)
