let () =
  Alcotest.run "filterstream-analysis"
    [ ("lint", Test_lint.suite); ("lp", Test_lp.suite) ]
