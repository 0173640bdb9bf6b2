let () =
  Alcotest.run "filterstream-pool"
    [
      ("parallel", Test_parallel.suite);
      ("serve", Test_serve.suite);
      ("reconfigure", Test_reconfigure.suite);
    ]
