(* The suites without a runner of their own. [dune runtest] runs the
   four test executables concurrently: this one, [test_fusion_main]
   (fusion), [test_analysis_main] (lp, lint) and [test_pool_main]
   (parallel, serve, reconfigure). *)
let () =
  Alcotest.run "filterstream"
    [
      ("interval", Test_interval.suite);
      ("graph", Test_graph.suite);
      ("cycles", Test_cycles.suite);
      ("spdag", Test_spdag.suite);
      ("ladder", Test_ladder.suite);
      ("fig3", Test_fig3.suite);
      ("crossval", Test_crossval.suite);
      ("compiler", Test_compiler.suite);
      ("channel", Test_channel.suite);
      ("runtime", Test_runtime.suite);
      ("sched", Test_sched.suite);
      ("firing", Test_firing.suite);
      ("obs", Test_obs.suite);
      ("soundness", Test_soundness.suite);
      ("workloads", Test_workloads.suite);
      ("k4", Test_k4.suite);
      ("repair", Test_repair.suite);
      ("io", Test_io.suite);
      ("embedding", Test_embedding.suite);
      ("verify", Test_verify.suite);
      ("app", Test_app.suite);
      ("diagnosis", Test_diagnosis.suite);
      ("app_spec", Test_app_spec.suite);
      ("sizing", Test_sizing.suite);
    ]
