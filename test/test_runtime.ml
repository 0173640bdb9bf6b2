open Fstream_core
open Fstream_runtime
open Fstream_workloads

let test_channel () =
  let module Ring = Firing.Ring in
  let r = Ring.create [| 2 |] in
  Alcotest.(check bool) "empty at start" true (Ring.length r 0 = 0);
  Alcotest.(check bool) "push 0" true (Ring.push r 0 (Ring.data ~seq:0));
  Alcotest.(check bool) "push 1" true (Ring.push r 0 (Ring.dummy ~seq:1));
  Alcotest.(check bool) "full now" true (Ring.length r 0 = Ring.capacity r 0);
  Alcotest.(check bool) "push on full fails" false
    (Ring.push r 0 (Ring.data ~seq:2));
  Alcotest.(check int) "dummies counted" 1 (Ring.dummies_pushed r 0);
  Alcotest.(check int) "data counted" 1 (Ring.data_pushed r 0);
  let m = Ring.pop r 0 in
  Alcotest.(check int) "FIFO head" 0 (Ring.seq m);
  Alcotest.(check bool) "head is data" true
    (Ring.kind m = Fstream_obs.Event.Data);
  Alcotest.check_raises "non-monotone sequence rejected"
    (Invalid_argument "Firing.Ring.push: sequence numbers must increase")
    (fun () -> ignore (Ring.push r 0 (Ring.data ~seq:1)))

let test_channel_validation () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Firing.Ring.create: capacity < 1") (fun () ->
      ignore (Firing.Ring.create [| 0 |]))

let run_fig2 avoidance =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let kernels =
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.block_edge 2 outs else Filters.passthrough outs)
  in
  Engine.run ~graph:g ~kernels ~inputs:25 ~avoidance ()

let test_fig2_deadlock () =
  let s = run_fig2 Engine.No_avoidance in
  Alcotest.(check bool) "deadlocks without avoidance" true
    (s.outcome = Report.Deadlocked);
  Alcotest.(check int) "no dummies sent" 0 s.dummy_messages

let test_fig2_avoided () =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  (match Compiler.compile Compiler.Propagation g with
  | Ok p ->
    let s =
      run_fig2 (Engine.Propagation (Compiler.propagation_thresholds g p.intervals))
    in
    Alcotest.(check bool) "propagation completes" true
      (s.outcome = Report.Completed);
    Alcotest.(check int) "all data delivered to sink" 25 s.sink_data;
    Alcotest.(check bool) "some dummies were needed" true (s.dummy_messages > 0)
  | Error e -> Alcotest.fail (Compiler.error_to_string e));
  match Compiler.compile Compiler.Non_propagation g with
  | Ok p ->
    let s =
      run_fig2 (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
    in
    Alcotest.(check bool) "non-propagation completes" true
      (s.outcome = Report.Completed);
    Alcotest.(check int) "all data delivered to sink" 25 s.sink_data
  | Error e -> Alcotest.fail (Compiler.error_to_string e)

let test_no_filtering_never_deadlocks () =
  (* without filtering the DAG behaves like SDF: no avoidance needed *)
  let g = Topo_gen.fig4_left ~cap:1 in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let s = Engine.run ~graph:g ~kernels ~inputs:50 ~avoidance:Engine.No_avoidance () in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "sink consumed both channels each seq" 100 s.sink_data

let test_drop_all_is_safe_on_pipeline () =
  (* a pipeline has no cycles; filtering everything simply starves the
     sink but the run still terminates via EOS *)
  let g = Topo_gen.pipeline ~stages:3 ~cap:2 in
  let kernels =
    Filters.for_graph g (fun v outs ->
        if v = 1 then Filters.drop_all outs else Filters.passthrough outs)
  in
  let s = Engine.run ~graph:g ~kernels ~inputs:30 ~avoidance:Engine.No_avoidance () in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "nothing reached the sink" 0 s.sink_data

let test_periodic_filter () =
  let g = Topo_gen.pipeline ~stages:2 ~cap:3 in
  let kernels =
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.periodic ~keep_every:3 outs
        else Filters.passthrough outs)
  in
  let s = Engine.run ~graph:g ~kernels ~inputs:30 ~avoidance:Engine.No_avoidance () in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "every third input survives" 10 s.sink_data

let test_determinism () =
  let g = Topo_gen.fig1_split_join ~branches:3 ~cap:2 in
  let mk seed =
    let rng = Random.State.make [| seed |] in
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.route_one rng outs else Filters.passthrough outs)
  in
  let thresholds =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p -> Compiler.send_thresholds g p.intervals
    | Error e -> Alcotest.fail (Compiler.error_to_string e)
  in
  let run () =
    Engine.run ~graph:g ~kernels:(mk 7) ~inputs:40
      ~avoidance:(Engine.Non_propagation thresholds) ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical stats across runs" true (a = b)

let test_kernel_validation () =
  let g = Topo_gen.pipeline ~stages:2 ~cap:1 in
  let kernels _ ~seq:_ ~got:_ = [ 99 ] in
  Alcotest.check_raises "invalid out edge rejected"
    (Invalid_argument "Engine: kernel of node 0 returned edge 99") (fun () ->
      ignore (Engine.run ~graph:g ~kernels ~inputs:1 ~avoidance:Engine.No_avoidance ()))

(* The kernels of {!Filters} against the [List.filter] formulations they
   replaced ([route_one] against its [List.nth] pick): equal lists over
   a run of firings, with the randomized ones drawing from identically
   seeded generators, so every draw must match in number and order.
   Out-lists have length 0-6 and may repeat an id. *)
let prop_filters_match_reference =
  Tutil.qtest ~count:300 "Filters kernels = List.filter references"
    Tutil.seed_gen (fun seed ->
      let rng = Tutil.rng_of seed in
      let outs =
        List.init (Random.State.int rng 7) (fun _ -> Random.State.int rng 8)
      in
      let keep = Random.State.float rng 1.0 in
      let every = 1 + Random.State.int rng 4 in
      let blocked = Random.State.int rng 8 in
      let twin () =
        (Random.State.make [| seed |], Random.State.make [| seed |])
      in
      let r1, r1' = twin () and r2, r2' = twin () in
      let cases =
        [
          ( "passthrough",
            Filters.passthrough outs,
            fun _ -> List.filter (fun _ -> true) outs );
          ( "drop_all",
            Filters.drop_all outs,
            fun _ -> List.filter (fun _ -> false) outs );
          ( "bernoulli",
            Filters.bernoulli r1 ~keep outs,
            fun _ ->
              List.filter (fun _ -> Random.State.float r1' 1.0 < keep) outs );
          ( "periodic",
            Filters.periodic ~keep_every:every outs,
            fun seq -> List.filter (fun _ -> seq mod every = 0) outs );
          ( "route_one",
            Filters.route_one r2 outs,
            fun _ ->
              match outs with
              | [] -> []
              | _ ->
                [ List.nth outs (Random.State.int r2' (List.length outs)) ] );
          ( "block_edge",
            Filters.block_edge blocked outs,
            fun _ -> List.filter (fun id -> id <> blocked) outs );
        ]
      in
      List.for_all
        (fun (name, kernel, reference) ->
          List.for_all
            (fun seq ->
              let got = kernel ~seq ~got:[ 0 ] and want = reference seq in
              got = want
              || QCheck.Test.fail_reportf "%s at seq %d: [%s], expected [%s]"
                   name seq
                   (String.concat ";" (List.map string_of_int got))
                   (String.concat ";" (List.map string_of_int want)))
            (List.init 8 Fun.id))
        cases)

(* A kernel that keeps every edge hands back the list it was built with. *)
let test_filters_share_kept_list () =
  let outs = [ 3; 5; 8 ] in
  let same name k =
    Alcotest.(check bool) name true (k ~seq:0 ~got:[ 0 ] == outs)
  in
  same "passthrough" (Filters.passthrough outs);
  same "bernoulli keep 1"
    (Filters.bernoulli (Random.State.make [| 1 |]) ~keep:1.0 outs);
  same "periodic on its phase" (Filters.periodic ~keep_every:2 outs)

let test_route_one_conservation () =
  (* a router sends each input to exactly one branch: the join sees
     exactly one data message per sequence number *)
  let g = Topo_gen.fig1_split_join ~branches:4 ~cap:2 in
  let rng = Random.State.make [| 11 |] in
  let kernels =
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.route_one rng outs else Filters.passthrough outs)
  in
  let thresholds =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p -> Compiler.send_thresholds g p.intervals
    | Error e -> Alcotest.fail (Compiler.error_to_string e)
  in
  let s =
    Engine.run ~graph:g ~kernels ~inputs:60
      ~avoidance:(Engine.Non_propagation thresholds) ()
  in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "one data message per input at the join" 60 s.sink_data

let test_dummy_slots_coalesce () =
  (* with very tight thresholds and heavy filtering, superseded dummies
     are counted rather than lost *)
  let g = Topo_gen.fig2_triangle ~cap:1 in
  let kernels =
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.block_edge 2 outs else Filters.passthrough outs)
  in
  let s =
    Engine.run ~graph:g ~kernels ~inputs:40
      ~avoidance:
        (Engine.Propagation (Thresholds.of_array g [| Some 1; Some 1; Some 1 |]))
      ()
  in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check bool) "dummy accounting is consistent" true
    (s.dummy_messages >= 0 && s.dropped_dummies >= 0)

let test_multiple_sources () =
  (* two independent sources feeding a shared join: the model presents
     each input sequence number at every source *)
  let g =
    Fstream_graph.Graph.make ~nodes:4
      [ (0, 2, 2); (1, 2, 2); (2, 3, 2) ]
  in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let s = Engine.run ~graph:g ~kernels ~inputs:25 ~avoidance:Engine.No_avoidance () in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "sink sees one merged message per seq" 25 s.sink_data

let test_budget_exhausted () =
  let g = Topo_gen.pipeline ~stages:2 ~cap:1 in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let s =
    Engine.run ~max_rounds:1 ~graph:g ~kernels ~inputs:100
      ~avoidance:Engine.No_avoidance ()
  in
  Alcotest.(check bool) "budget reported" true
    (s.outcome = Report.Budget_exhausted)

let test_deadlock_dump_smoke () =
  (* the diagnostic dump must render without raising *)
  let g = Topo_gen.fig2_triangle ~cap:1 in
  let kernels =
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.block_edge 2 outs else Filters.passthrough outs)
  in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let s =
    Engine.run ~deadlock_dump:ppf ~graph:g ~kernels ~inputs:10
      ~avoidance:Engine.No_avoidance ()
  in
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "deadlocked" true (s.outcome = Report.Deadlocked);
  Alcotest.(check bool) "dump mentions the empty channel" true
    (Buffer.length buf > 0)

let test_wide_split () =
  (* Regression for kernel-output validation cost: it used to scan the
     node's out-edge list once per returned id (quadratic in fan-out);
     the per-edge ownership table makes it linear. A 2000-way split
     whose kernel returns its full edge set — duplicated, which must
     coalesce to one send per edge — has to complete and deliver every
     sequence number on every branch. *)
  let branches = 2000 in
  let edges =
    List.init branches (fun i -> (0, 1 + i, 2))
    @ List.init branches (fun i -> (1 + i, branches + 1, 2))
  in
  let g = Fstream_graph.Graph.make ~nodes:(branches + 2) edges in
  let out0 =
    List.map
      (fun (e : Fstream_graph.Graph.edge) -> e.id)
      (Fstream_graph.Graph.out_edges g 0)
  in
  let passthrough = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let kernels v =
    if v = 0 then fun ~seq:_ ~got:_ -> out0 @ out0 else passthrough v
  in
  let s = Engine.run ~graph:g ~kernels ~inputs:8 ~avoidance:Engine.No_avoidance () in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "duplicates coalesced: one send per edge per seq"
    (8 * 2 * branches) s.data_messages;
  Alcotest.(check int) "join consumed every branch" (8 * branches) s.sink_data;
  (* ownership, not just range: an id belonging to another node must be
     rejected even though it is a valid edge id *)
  let stolen v = if v = 1 then fun ~seq:_ ~got:_ -> out0 else passthrough v in
  Alcotest.check_raises "foreign edge id rejected"
    (Invalid_argument
       (Printf.sprintf "Engine: kernel of node 1 returned edge %d"
          (List.hd out0)))
    (fun () ->
      ignore
        (Engine.run ~graph:g ~kernels:stolen ~inputs:1
           ~avoidance:Engine.No_avoidance ()))

let test_zero_inputs () =
  let g = Topo_gen.fig4_left ~cap:1 in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let s = Engine.run ~graph:g ~kernels ~inputs:0 ~avoidance:Engine.No_avoidance () in
  Alcotest.(check bool) "empty stream drains" true (s.outcome = Report.Completed);
  Alcotest.(check int) "no data" 0 s.data_messages

(* [Filters.bernoulli] keeps exactly the edges that
   [Random.State.float rng 1.0 < keep] keeps, and draws as often: twin
   generator states, one driving the kernel and one the float test,
   stay in step. Besides fixed and random keeps, some keeps sit on the
   next float draw itself or one float either side of it, where a
   rounding slip in the integer bound would show. *)
let test_bernoulli_draws =
  Tutil.qtest ~count:200 "bernoulli decisions = Random.State.float's"
    Tutil.seed_gen (fun seed ->
      let g = Tutil.rng_of seed in
      let a = Random.State.make [| seed |] in
      let b = Random.State.copy a in
      let fixed =
        [| 0.; 0x1p-53; 0.5; 0.999; 1. -. 0x1p-53; 1.; 1.5; -0.5; Float.nan |]
      in
      let ok = ref true in
      for _ = 1 to 50 do
        let keep =
          match Random.State.int g 3 with
          | 0 -> fixed.(Random.State.int g (Array.length fixed))
          | 1 -> Random.State.float g 1.2
          | _ ->
            let f = Random.State.float (Random.State.copy b) 1.0 in
            [| f; Float.pred f; Float.succ f |].(Random.State.int g 3)
        in
        let outs = List.init (1 + Random.State.int g 4) Fun.id in
        let kernel = Filters.bernoulli a ~keep outs in
        for _ = 0 to Random.State.int g 3 do
          let kept = kernel ~seq:0 ~got:[ 0 ] in
          let expected =
            List.filter (fun _ -> Random.State.float b 1.0 < keep) outs
          in
          if kept <> expected then ok := false
        done
      done;
      !ok && Random.State.bits a = Random.State.bits b)

let suite =
  [
    Alcotest.test_case "channel basics" `Quick test_channel;
    test_bernoulli_draws;
    Alcotest.test_case "channel validation" `Quick test_channel_validation;
    Alcotest.test_case "fig2 deadlocks bare" `Quick test_fig2_deadlock;
    Alcotest.test_case "fig2 avoided by both wrappers" `Quick test_fig2_avoided;
    Alcotest.test_case "no filtering, no deadlock" `Quick
      test_no_filtering_never_deadlocks;
    Alcotest.test_case "acyclic drop-all terminates" `Quick
      test_drop_all_is_safe_on_pipeline;
    Alcotest.test_case "periodic filter" `Quick test_periodic_filter;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "kernel validation" `Quick test_kernel_validation;
    Alcotest.test_case "router conservation" `Quick test_route_one_conservation;
    prop_filters_match_reference;
    Alcotest.test_case "kept lists are shared" `Quick
      test_filters_share_kept_list;
    Alcotest.test_case "dummy slots coalesce" `Quick test_dummy_slots_coalesce;
    Alcotest.test_case "multiple sources" `Quick test_multiple_sources;
    Alcotest.test_case "budget exhausted" `Quick test_budget_exhausted;
    Alcotest.test_case "deadlock dump" `Quick test_deadlock_dump_smoke;
    Alcotest.test_case "wide split node" `Quick test_wide_split;
    Alcotest.test_case "zero inputs" `Quick test_zero_inputs;
  ]
