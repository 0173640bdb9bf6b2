(* The observability layer's two load-bearing properties.

   Replay: a run's [Report.t] is a pure function of its event log —
   [Report.of_events] applied to the ring-buffered stream reproduces
   the engine's report bit-for-bit, across topology families and
   avoidance modes. This is the proof
   that the event vocabulary is a complete account of a run.

   Conservation: the metrics registry folds the same log into
   aggregates that must agree with the report — per-edge data/dummy
   sums, watermarks bounded by capacity, and the dummy life-cycle
   (every emission is eventually delivered or dropped, up to the
   at-most-one in-flight slot a non-completed run can strand per
   channel). *)

open Fstream_core
open Fstream_runtime
open Fstream_workloads
module Obs = Fstream_obs

let bernoulli_kernels g seed =
  let rng = Random.State.make [| seed; 0x0b5 |] in
  Filters.for_graph g (fun _ outs -> Filters.bernoulli rng ~keep:0.6 outs)

let wrappers g =
  let prop =
    match Compiler.compile Compiler.Propagation g with
    | Ok p ->
      [ Engine.Propagation (Compiler.propagation_thresholds g p.intervals) ]
    | Error _ -> []
  in
  let nonprop =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p -> [ Engine.Non_propagation (Compiler.send_thresholds g p.intervals) ]
    | Error _ -> []
  in
  (Engine.No_avoidance :: prop) @ nonprop

let logged_run g seed avoidance =
  let ring = Obs.Ring.create ~capacity:(1 lsl 20) () in
  let report =
    Engine.run ~sink:(Obs.Ring.sink ring) ~graph:g
      ~kernels:(bernoulli_kernels g seed) ~inputs:30 ~avoidance ()
  in
  assert (Obs.Ring.dropped ring = 0);
  (report, Obs.Ring.contents ring)

let replay_exact g seed =
  List.for_all
    (fun avoidance ->
      let report, events = logged_run g seed avoidance in
      Report.of_events ~graph:g events = report)
    (wrappers g)

let prop_replay_sp =
  Tutil.qtest ~count:300 "replay oracle: SP workloads" Tutil.seed_gen
    (fun seed -> replay_exact (Tutil.random_sp_of_seed seed) seed)

let prop_replay_ladder =
  Tutil.qtest ~count:300 "replay oracle: ladder workloads" Tutil.seed_gen
    (fun seed -> replay_exact (Tutil.random_ladder_of_seed seed) seed)

let count_emitted events =
  List.length
    (List.filter
       (function Obs.Event.Dummy_emitted _ -> true | _ -> false)
       events)

let prop_conservation =
  (* the dummy life-cycle and the per-edge aggregates, on random CS4
     topologies under Propagation (the mode with both forwarded and
     originated dummies) *)
  Tutil.qtest ~count:150 "metrics conservation" Tutil.seed_gen (fun seed ->
      let g = Tutil.random_cs4_of_seed seed in
      match Compiler.compile Compiler.Propagation g with
      | Error _ -> true (* nothing to check *)
      | Ok p ->
        let avoidance =
          Engine.Propagation (Compiler.propagation_thresholds g p.intervals)
        in
        let report, events = logged_run g seed avoidance in
        let m = Obs.Metrics.of_events ~graph:g ~inputs:30 events in
        let sum f = Array.fold_left (fun a e -> a + f e) 0 m.edges in
        let emitted = count_emitted events in
        let delivered = report.dummy_messages
        and dropped = report.dropped_dummies in
        let in_flight_bound =
          match report.outcome with
          | Report.Completed -> 0 (* every slot drains before EOS retires *)
          | _ -> Fstream_graph.Graph.num_edges g
        in
        sum (fun e -> e.Obs.Metrics.data) = report.data_messages
        && sum (fun e -> e.Obs.Metrics.dummies) = report.dummy_messages
        && Array.for_all2
             (fun (e : Obs.Metrics.edge_metrics) (ge : Fstream_graph.Graph.edge) ->
               e.high_watermark >= 0 && e.high_watermark <= ge.cap
               && e.capacity = ge.cap)
             m.edges
             (Array.of_list (Fstream_graph.Graph.edges g))
        && delivered + dropped <= emitted
        && emitted <= delivered + dropped + in_flight_bound
        && m.events = List.length events)

let test_live_sink_equals_replay () =
  (* the incremental collector (usable as a sink during the run) and
     the post-hoc fold over the log agree *)
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let avoidance =
    match Compiler.compile Compiler.Propagation g with
    | Ok p -> Engine.Propagation (Compiler.propagation_thresholds g p.intervals)
    | Error e -> Alcotest.fail (Compiler.error_to_string e)
  in
  let ring = Obs.Ring.create () in
  let c = Obs.Metrics.collector ~graph:g ~inputs:40 () in
  let sink = Obs.Sink.tee (Obs.Ring.sink ring) (Obs.Metrics.sink c) in
  let report =
    Engine.run ~sink ~graph:g ~kernels:(bernoulli_kernels g 7) ~inputs:40
      ~avoidance ()
  in
  Alcotest.(check bool) "run completed" true
    (report.Report.outcome = Report.Completed);
  Alcotest.(check bool) "collector = of_events" true
    (Obs.Metrics.result c
    = Obs.Metrics.of_events ~graph:g ~inputs:40 (Obs.Ring.contents ring))

let test_parallel_replay () =
  (* the parallel engine's interleaved log still reconstructs its
     report: counts are order-independent and the outcome rides the
     terminal [Run_finished] *)
  let g = Topo_gen.fig4_left ~cap:2 in
  let avoidance =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p -> Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
    | Error e -> Alcotest.fail (Compiler.error_to_string e)
  in
  let ring = Obs.Ring.create ~capacity:(1 lsl 20) () in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let report =
    Fstream_parallel.Parallel_engine.run ~sink:(Obs.Ring.sink ring) ~graph:g
      ~kernels ~inputs:50 ~avoidance ()
  in
  Alcotest.(check int) "complete log" 0 (Obs.Ring.dropped ring);
  Alcotest.(check bool) "parallel run completed" true
    (report.Report.outcome = Report.Completed);
  Alcotest.(check bool) "replay reconstructs the parallel report" true
    (Report.of_events ~graph:g (Obs.Ring.contents ring) = report)

let test_ring_eviction () =
  let r = Obs.Ring.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Ring.push r (Obs.Event.Round_started { round = i })
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Ring.length r);
  Alcotest.(check int) "evictions counted" 6 (Obs.Ring.dropped r);
  Alcotest.(check bool) "keeps the most recent" true
    (Obs.Ring.contents r
    = List.map (fun round -> Obs.Event.Round_started { round }) [ 7; 8; 9; 10 ])

let test_thresholds_fingerprint () =
  (* a threshold table is bound to the graph it was compiled for *)
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let other = Topo_gen.pipeline ~stages:3 ~cap:2 in
  let t = Thresholds.of_array g [| Some 1; Some 1; Some 4 |] in
  Thresholds.check t g;
  (* same edge count, different topology: the fingerprint must differ *)
  Alcotest.(check bool) "foreign graph rejected" true
    (try
       Thresholds.check t other;
       false
     with Invalid_argument _ -> true);
  let kernels =
    Filters.for_graph other (fun _ outs -> Filters.passthrough outs)
  in
  Alcotest.(check bool) "engine refuses a foreign table" true
    (try
       ignore
         (Engine.run ~graph:other ~kernels ~inputs:1
            ~avoidance:(Engine.Non_propagation t) ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "live sink = replayed fold" `Quick
      test_live_sink_equals_replay;
    Alcotest.test_case "parallel replay" `Quick test_parallel_replay;
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "thresholds fingerprint" `Quick
      test_thresholds_fingerprint;
    prop_replay_sp;
    prop_replay_ladder;
    prop_conservation;
  ]
