let () = Alcotest.run "filterstream-fusion" [ ("fusion", Test_fusion.suite) ]
