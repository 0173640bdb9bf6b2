(* The typed application layer: real values flow end to end, filtering
   included, under both runtimes and with the avoidance wrapper on. *)

open Fstream_core
open Fstream_runtime
open Fstream_workloads

(* A small analytics app on the Fig. 4-left ladder:
   gen -> stage a (squares, escalates multiples of 3 to b),
   b sums whatever it sees (its own feed + escalations), collect. *)
let build_app g collected =
  let app = App.create g in
  App.source app 0 (fun ~seq -> [ (0, seq); (1, seq) ]);
  (* a = node 1: in e0; out e2 (cross, filtered), e3 (to sink) *)
  App.node app 1 (fun ~seq:_ ~inputs ->
      match inputs with
      | [ (0, x) ] ->
        let sq = x * x in
        if x mod 3 = 0 then [ (2, sq); (3, sq) ] else [ (3, sq) ]
      | _ -> Alcotest.fail "node a: unexpected inputs");
  (* b = node 2: in e1 (own feed), e2 (escalations); out e4 *)
  App.node app 2 (fun ~seq:_ ~inputs ->
      let total = List.fold_left (fun acc (_, v) -> acc + v) 0 inputs in
      [ (4, total) ]);
  App.sink app 3 (fun ~seq ~inputs ->
      List.iter (fun (e, v) -> collected := (seq, e, v) :: !collected) inputs);
  app

let expected_results inputs =
  (* per seq s: sink receives on e3 the square, on e4 s + (s^2 when
     3 | s) *)
  List.concat_map
    (fun s ->
      [ (s, 3, s * s); (s, 4, if s mod 3 = 0 then s + (s * s) else s) ])
    (List.init inputs Fun.id)
  |> List.sort compare

let run_and_check run_fn =
  let g = Topo_gen.fig4_left ~cap:2 in
  let collected = ref [] in
  let app = build_app g collected in
  Alcotest.(check (list int)) "fully configured" [] (App.unconfigured app);
  let inputs = 30 in
  run_fn g (App.to_kernels app) inputs;
  Alcotest.(check (list (triple int int int)))
    "sink saw exactly the computed values" (expected_results inputs)
    (List.sort compare !collected)

let test_sequential () =
  run_and_check (fun g kernels inputs ->
      let plan = Result.get_ok (Compiler.compile Compiler.Non_propagation g) in
      let s =
        Engine.run ~graph:g ~kernels ~inputs
          ~avoidance:
            (Engine.Non_propagation (Compiler.send_thresholds g plan.intervals))
          ()
      in
      Alcotest.(check bool) "completed" true (s.Report.outcome = Report.Completed))

let test_parallel () =
  run_and_check (fun g kernels inputs ->
      let plan = Result.get_ok (Compiler.compile Compiler.Non_propagation g) in
      let s =
        Fstream_parallel.Parallel_engine.run ~graph:g ~kernels ~inputs
          ~avoidance:
            (Engine.Non_propagation (Compiler.send_thresholds g plan.intervals))
          ()
      in
      Alcotest.(check bool) "completed" true
        (s.Report.outcome = Report.Completed))

let test_store_drains () =
  (* exactly-once resolution keeps the payload store empty at the end *)
  let g = Topo_gen.fig4_left ~cap:2 in
  let collected = ref [] in
  let app = build_app g collected in
  let plan = Result.get_ok (Compiler.compile Compiler.Non_propagation g) in
  ignore
    (Engine.run ~graph:g ~kernels:(App.to_kernels app) ~inputs:20
       ~avoidance:
         (Engine.Non_propagation (Compiler.send_thresholds g plan.intervals))
       ());
  (* a second run through the same app reuses the (drained) store *)
  collected := [];
  ignore
    (Engine.run ~graph:g ~kernels:(App.to_kernels app) ~inputs:20
       ~avoidance:
         (Engine.Non_propagation (Compiler.send_thresholds g plan.intervals))
       ());
  Alcotest.(check int) "second run produced full results" 40
    (List.length !collected)

let test_validation () =
  let g = Topo_gen.pipeline ~stages:2 ~cap:1 in
  let app = App.create g in
  Alcotest.check_raises "source must be a source"
    (Invalid_argument "App.source: node has incoming channels") (fun () ->
      App.source app 1 (fun ~seq:_ -> []));
  Alcotest.check_raises "node must not be a source"
    (Invalid_argument "App.node: node is a source") (fun () ->
      App.node app 0 (fun ~seq:_ ~inputs:_ -> []));
  App.source app 0 (fun ~seq -> [ (99, seq) ]);
  Alcotest.(check (list int)) "middle node unconfigured" [ 1; 2 ]
    (App.unconfigured app);
  Alcotest.check_raises "foreign channel rejected at fire time"
    (Invalid_argument "App: node 0 emitted on foreign channel 99") (fun () ->
      ignore
        (Engine.run ~graph:g ~kernels:(App.to_kernels app) ~inputs:1
           ~avoidance:Engine.No_avoidance ()))

let suite =
  [
    Alcotest.test_case "values flow (sequential engine)" `Quick test_sequential;
    Alcotest.test_case "values flow (parallel engine)" `Quick test_parallel;
    Alcotest.test_case "payload store drains" `Quick test_store_drains;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
