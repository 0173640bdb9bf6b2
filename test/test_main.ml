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
      ("parallel", Test_parallel.suite);
      ("app", Test_app.suite);
      ("diagnosis", Test_diagnosis.suite);
      ("app_spec", Test_app_spec.suite);
      ("sizing", Test_sizing.suite);
      ("lint", Test_lint.suite);
      ("lp", Test_lp.suite);
      ("fusion", Test_fusion.suite);
      ("serve", Test_serve.suite);
      ("reconfigure", Test_reconfigure.suite);
    ]
