(* The sharded domain-pool runtime: nodes as lightweight tasks over a
   fixed worker pool, deadlock detected by exact quiescence. The
   differential suites lean on the Kahn-network argument: for kernels
   whose decisions depend only on their own node's firing history, the
   data computation — outcome included — is schedule-independent, so
   the pool must reproduce the sequential engine's data/sink counts
   whatever the interleaving (dummy traffic is timing-driven and stays
   out of the comparisons). *)

open Fstream_core
open Fstream_runtime
open Fstream_workloads
module Graph = Fstream_graph.Graph
module P = Fstream_parallel.Parallel_engine
module Metrics = Fstream_obs.Metrics
module Ring = Fstream_obs.Ring
module Sink = Fstream_obs.Sink

let fig2_kernels g =
  Filters.for_graph g (fun v outs ->
      if v = 0 then Filters.block_edge 2 outs else Filters.passthrough outs)

let test_fig2_deadlocks () =
  (* no watchdog: the structural quiescence check alone must catch the
     wedge, and Kahn determinism pins its traffic exactly *)
  let g = Topo_gen.fig2_triangle ~cap:2 in
  List.iter
    (fun domains ->
      let s =
        P.run ~domains ~graph:g ~kernels:(fig2_kernels g) ~inputs:50
          ~avoidance:Engine.No_avoidance ()
      in
      Alcotest.(check bool) "deadlocked across domains" true
        (s.outcome = Report.Deadlocked);
      Alcotest.(check int)
        "wedged with the same traffic as the sequential engine" 7
        s.data_messages)
    [ 1; 2; 4 ]

let test_fig2_avoided () =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  match Compiler.compile Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok p ->
    let s =
      P.run ~domains:2 ~graph:g ~kernels:(fig2_kernels g) ~inputs:50
        ~avoidance:(Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
        ()
    in
    Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
    Alcotest.(check int) "all data delivered" 50 s.sink_data

let test_matches_sequential_engine () =
  let g = Topo_gen.fig4_left ~cap:2 in
  let kernels () =
    Filters.for_graph g (fun v outs ->
        if v = 1 then Filters.periodic ~keep_every:3 outs
        else Filters.passthrough outs)
  in
  match Compiler.compile Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok p ->
    let avoidance =
      Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
    in
    let seq = Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:60 ~avoidance () in
    let par =
      P.run ~domains:3 ~graph:g ~kernels:(kernels ()) ~inputs:60 ~avoidance ()
    in
    Alcotest.(check bool) "both complete" true
      (seq.Report.outcome = Report.Completed && par.outcome = Report.Completed);
    Alcotest.(check int) "same data count" seq.Report.data_messages
      par.data_messages;
    Alcotest.(check int) "same sink deliveries" seq.Report.sink_data
      par.sink_data

let test_pipeline_parallel () =
  let g = Topo_gen.pipeline ~stages:6 ~cap:2 in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let s =
    P.run ~domains:2 ~graph:g ~kernels ~inputs:200
      ~avoidance:Engine.No_avoidance ()
  in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "all delivered" 200 s.sink_data

(* The old runtime rejected graphs with more than 64 nodes (one domain
   per node); the pool takes a 4096-node pipeline on 4 workers. *)
let test_node_cap_gone () =
  let g = Topo_gen.pipeline ~stages:4095 ~cap:2 in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let s =
    P.run ~domains:4 ~graph:g ~kernels ~inputs:8 ~avoidance:Engine.No_avoidance
      ()
  in
  Alcotest.(check bool) "4096-node pipeline completes" true
    (s.outcome = Report.Completed);
  Alcotest.(check int) "every hop forwarded" (8 * 4095) s.data_messages;
  Alcotest.(check int) "all delivered" 8 s.sink_data

let test_large_cs4_chain () =
  let rng = Tutil.rng_of 7 in
  let g = Topo_gen.random_cs4 rng ~blocks:120 ~block_edges:22 ~max_cap:4 in
  Alcotest.(check bool) "graph is >= 1000 nodes" true (Graph.num_nodes g >= 1000);
  match Compiler.compile Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok p ->
    let kernels () =
      Filters.for_graph g (fun v outs ->
          if v mod 3 = 1 then Filters.periodic ~keep_every:3 outs
          else Filters.passthrough outs)
    in
    let avoidance =
      Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
    in
    let seq = Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:20 ~avoidance () in
    let par =
      P.run ~domains:4 ~graph:g ~kernels:(kernels ()) ~inputs:20 ~avoidance ()
    in
    Alcotest.(check bool) "both complete" true
      (seq.Report.outcome = Report.Completed && par.outcome = Report.Completed);
    Alcotest.(check int) "same data count" seq.Report.data_messages
      par.data_messages;
    Alcotest.(check int) "same sink deliveries" seq.Report.sink_data
      par.sink_data

(* Regression for the false-deadlock bug: a wall-clock watchdog that
   watched only the push/pop counter aborted a run whose kernel
   computed past its window. Deadlock is now detected by quiescence
   alone (the ticket count); a kernel that sleeps while every other
   node is idle must not be reported as one. *)
let test_slow_kernel_no_false_deadlock () =
  let g = Topo_gen.pipeline ~stages:2 ~cap:2 in
  let kernels v =
    if v = 1 then fun ~seq:_ ~got:_ ->
      Unix.sleepf 0.06;
      List.map (fun (e : Graph.edge) -> e.id) (Graph.out_edges g 1)
    else Filters.for_graph g (fun _ outs -> Filters.passthrough outs) v
  in
  let s =
    P.run ~domains:2 ~graph:g ~kernels ~inputs:3
      ~avoidance:Engine.No_avoidance ()
  in
  Alcotest.(check bool) "slow kernel still completes" true
    (s.outcome = Report.Completed);
  Alcotest.(check int) "nothing lost" 3 s.sink_data

(* Blocking episodes: [Blocked] fires once when a node's sends park on
   a full channel, not once per retry/wakeup. A cap-1 pipeline with a
   slow sink forces the producers to block on nearly every firing; the
   per-node count stays bounded by firings, and the live collector
   agrees exactly with the replayed ring log. *)
let test_blocked_once_per_episode () =
  let inputs = 12 in
  let g = Topo_gen.pipeline ~stages:2 ~cap:1 in
  let kernels v =
    if v = 2 then fun ~seq:_ ~got:_ ->
      Unix.sleepf 0.004;
      []
    else Filters.for_graph g (fun _ outs -> Filters.passthrough outs) v
  in
  let ring = Ring.create ~capacity:2048 () in
  let c = Metrics.collector ~graph:g ~inputs () in
  let s =
    P.run ~domains:2 ~graph:g ~kernels ~inputs
      ~sink:(Sink.tee (Ring.sink ring) (Metrics.sink c))
      ~avoidance:Engine.No_avoidance ()
  in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "ring kept the whole log" 0 (Ring.dropped ring);
  let live = Metrics.result c in
  let replay = Metrics.of_events ~graph:g ~inputs (Ring.contents ring) in
  Alcotest.(check (array int)) "blocked visits: collector = replay"
    replay.Metrics.blocked_visits live.Metrics.blocked_visits;
  Alcotest.(check (array int)) "firings: collector = replay"
    replay.Metrics.fired live.Metrics.fired;
  Alcotest.(check int) "same event count" replay.Metrics.events
    live.Metrics.events;
  (* one episode at most per firing (inputs + EOS); spurious-wakeup
     re-emission would multiply this by the retry count *)
  Array.iteri
    (fun v b ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d blocked episodes bounded by firings" v)
        true
        (b <= inputs + 2))
    live.Metrics.blocked_visits

(* Kernel-output validation on the parallel path: linear in the number
   of returned ids (owner table), not a scan of the out-edge list per
   id. Same shape as the sequential wide-split regression. *)
let test_wide_split_parallel () =
  let branches = 600 in
  let edges =
    List.init branches (fun i -> (0, 1 + i, 2))
    @ List.init branches (fun i -> (1 + i, branches + 1, 2))
  in
  let g = Graph.make ~nodes:(branches + 2) edges in
  let out0 =
    List.map (fun (e : Graph.edge) -> e.id) (Graph.out_edges g 0)
  in
  let passthrough = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let kernels v =
    if v = 0 then fun ~seq:_ ~got:_ -> out0 @ out0 else passthrough v
  in
  let s =
    P.run ~domains:2 ~graph:g ~kernels ~inputs:8 ~avoidance:Engine.No_avoidance
      ()
  in
  Alcotest.(check bool) "completed" true (s.outcome = Report.Completed);
  Alcotest.(check int) "duplicates coalesced: one send per edge per seq"
    (8 * 2 * branches) s.data_messages;
  Alcotest.(check int) "join consumed every branch" (8 * branches) s.sink_data;
  let stolen v = if v = 1 then fun ~seq:_ ~got:_ -> out0 else passthrough v in
  Alcotest.check_raises "foreign edge id rejected"
    (Invalid_argument
       (Printf.sprintf "Parallel_engine: kernel of node 1 returned edge %d"
          (List.hd out0)))
    (fun () ->
      ignore
        (P.run ~domains:2 ~graph:g ~kernels:stolen ~inputs:1
           ~avoidance:Engine.No_avoidance ()))

(* ----- differential qcheck: pool vs sequential engine ----- *)

let graph_of_family seed =
  match seed mod 3 with
  | 0 -> Tutil.random_sp_of_seed ~max_edges:24 seed
  | 1 -> Tutil.random_ladder_of_seed ~max_rungs:8 seed
  | _ -> Tutil.random_cs4_of_seed seed

let domains_of seed = match seed / 3 mod 3 with 0 -> 1 | 1 -> 2 | _ -> 4

(* node-deterministic kernels, rebuilt identically for each engine:
   per-node RNG (thread-safe and schedule-independent) plus periodic
   relays *)
let mixed_kernels g seed () =
  Filters.for_graph g (fun v outs ->
      match v mod 3 with
      | 0 -> Filters.bernoulli (Random.State.make [| seed; v |]) ~keep:0.7 outs
      | 1 -> Filters.periodic ~keep_every:(2 + (seed mod 3)) outs
      | _ -> Filters.passthrough outs)

(* paper-pattern filtering (sources and single-output relays only) —
   the regime where Propagation is sound, so completion itself is
   schedule-independent *)
let paper_pattern_kernels g seed () =
  Filters.for_graph g (fun v outs ->
      if Graph.in_degree g v = 0 || Graph.out_degree g v = 1 then
        Filters.bernoulli (Random.State.make [| seed; v |]) ~keep:0.6 outs
      else Filters.passthrough outs)

let prop_no_avoidance_agrees =
  Tutil.qtest ~count:18 "pool = sequential under no avoidance (wedges too)"
    Tutil.seed_gen (fun seed ->
      let g = graph_of_family seed in
      let kernels = mixed_kernels g seed in
      let seq =
        Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:30
          ~avoidance:Engine.No_avoidance ()
      in
      let par =
        P.run ~domains:(domains_of seed) ~graph:g ~kernels:(kernels ())
          ~inputs:30 ~avoidance:Engine.No_avoidance ()
      in
      seq.Report.outcome = par.Report.outcome
      && seq.Report.data_messages = par.Report.data_messages
      && seq.Report.sink_data = par.Report.sink_data)

let prop_non_propagation_agrees =
  Tutil.qtest ~count:18 "pool = sequential under non-propagation"
    Tutil.seed_gen (fun seed ->
      let g = graph_of_family seed in
      match Compiler.compile Compiler.Non_propagation g with
      | Error _ -> false
      | Ok p ->
        let avoidance =
          Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
        in
        let kernels = mixed_kernels g seed in
        let seq =
          Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:30 ~avoidance ()
        in
        let par =
          P.run ~domains:(domains_of seed) ~graph:g ~kernels:(kernels ())
            ~inputs:30 ~avoidance ()
        in
        seq.Report.outcome = Report.Completed
        && par.Report.outcome = Report.Completed
        && seq.Report.data_messages = par.Report.data_messages
        && seq.Report.sink_data = par.Report.sink_data)

let prop_propagation_agrees =
  Tutil.qtest ~count:18
    "pool = sequential under propagation (paper-pattern filtering)"
    Tutil.seed_gen (fun seed ->
      let g = graph_of_family seed in
      match Compiler.compile Compiler.Propagation g with
      | Error _ -> true (* family outside the wrapper's domain: skip *)
      | Ok p ->
        let avoidance =
          Engine.Propagation (Compiler.propagation_thresholds g p.intervals)
        in
        let kernels = paper_pattern_kernels g seed in
        let seq =
          Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:30 ~avoidance ()
        in
        let par =
          P.run ~domains:(domains_of seed) ~graph:g ~kernels:(kernels ())
            ~inputs:30 ~avoidance ()
        in
        seq.Report.outcome = Report.Completed
        && par.Report.outcome = Report.Completed
        && seq.Report.data_messages = par.Report.data_messages
        && seq.Report.sink_data = par.Report.sink_data)

(* one deterministic big instance per run: a >= 512-node ladder checked
   at every pool width *)
let test_big_ladder_differential () =
  let rng = Tutil.rng_of 7 in
  let g = Topo_gen.random_ladder rng ~rungs:130 ~segment_edges:5 ~max_cap:4 in
  Alcotest.(check bool) "graph is >= 512 nodes" true (Graph.num_nodes g >= 512);
  match Compiler.compile Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok p ->
    let avoidance =
      Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
    in
    let kernels = mixed_kernels g 41 in
    let seq = Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:20 ~avoidance () in
    Alcotest.(check bool) "sequential completes" true
      (seq.Report.outcome = Report.Completed);
    List.iter
      (fun domains ->
        let par =
          P.run ~domains ~graph:g ~kernels:(kernels ()) ~inputs:20 ~avoidance ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "pool completes with %d domains" domains)
          true
          (par.Report.outcome = Report.Completed);
        Alcotest.(check int)
          (Printf.sprintf "data count at %d domains" domains)
          seq.Report.data_messages par.Report.data_messages;
        Alcotest.(check int)
          (Printf.sprintf "sink count at %d domains" domains)
          seq.Report.sink_data par.Report.sink_data)
      [ 1; 2; 4 ]

let prop_avoidance_sound_in_parallel =
  Tutil.qtest ~count:15 "non-propagation sound across domains" Tutil.seed_gen
    (fun seed ->
      let rng = Tutil.rng_of seed in
      let g =
        Topo_gen.random_cs4 rng
          ~blocks:(1 + Random.State.int rng 2)
          ~block_edges:6 ~max_cap:3
      in
      Graph.num_nodes g > 20
      ||
      match Compiler.compile Compiler.Non_propagation g with
      | Error _ -> false
      | Ok p ->
        let kseed = Random.State.int rng 1_000_000 in
        let kernels =
          Filters.for_graph g (fun v outs ->
              let r = Random.State.make [| kseed; v |] in
              Filters.bernoulli r ~keep:0.6 outs)
        in
        let s =
          P.run ~domains:(domains_of seed) ~graph:g ~kernels ~inputs:40
            ~avoidance:
              (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
            ()
        in
        s.outcome = Report.Completed)

(* ----- pool-1 is the sequential engine ----- *)

(* With one domain an instance is a single shard, whose claims run the
   sequential engine's worklist pass for pass (a claim's visit budget
   only ends it between passes): the whole report matches, dummy
   traffic included — everything but [detail]. *)
let one_shard_families =
  [
    ("sp", fun seed -> Tutil.random_sp_of_seed ~max_edges:24 seed);
    ("ladder", fun seed -> Tutil.random_ladder_of_seed ~max_rungs:8 seed);
    ("cs4", fun seed -> Tutil.random_cs4_of_seed seed);
    ("dense", Tutil.random_dense_of_seed);
    ("dag", Tutil.random_dag_of_seed);
    ( "diamond_chain",
      fun seed ->
        Topo_gen.diamond_chain ~bypass:(seed mod 2 = 1)
          ~diamonds:(1 + (seed / 2 mod 8))
          ~cap:(1 + (seed mod 5)) () );
  ]

(* the three avoidance modes; a mode the graph does not compile under
   is skipped *)
let avoidances g =
  let compiled algorithm thresholds =
    match Compiler.compile algorithm g with
    | Ok p -> [ thresholds g p.Compiler.intervals ]
    | Error _ -> []
  in
  (Engine.No_avoidance
  :: compiled Compiler.Propagation (fun g iv ->
         Engine.Propagation (Compiler.propagation_thresholds g iv)))
  @ compiled Compiler.Non_propagation (fun g iv ->
        Engine.Non_propagation (Compiler.send_thresholds g iv))

let prop_one_shard (name, family) =
  Tutil.qtest ~count:50
    (Printf.sprintf "pool-1 report = sequential engine's on %s workloads" name)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      let kernels = mixed_kernels g seed in
      List.for_all
        (fun avoidance ->
          let seq =
            Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:30 ~avoidance ()
          in
          let par =
            P.run ~domains:1 ~graph:g ~kernels:(kernels ()) ~inputs:30
              ~avoidance ()
          in
          { seq with Report.detail = par.Report.detail } = par)
        (avoidances g))

(* The report's message counts are the rings' own push counters; a
   recount of the [Push] events the same run narrated must give the
   same totals and the same per-edge dummies, sequentially and on a
   two-domain pool (whose events arrive through the step's emission
   lock). *)
let prop_counts_match_pushes (name, family) =
  Tutil.qtest ~count:20
    (Printf.sprintf "report counts = recount of Push events on %s workloads"
       name)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      let kernels = mixed_kernels g seed in
      let agrees run =
        let data = ref 0 and dummies = Array.make (Graph.num_edges g) 0 in
        let sink =
          Sink.make (function
            | Fstream_obs.Event.Push { payload = Data; _ } -> incr data
            | Push { edge; payload = Dummy; _ } ->
              dummies.(edge) <- dummies.(edge) + 1
            | _ -> ())
        in
        let r : Report.t = run sink in
        r.data_messages = !data
        && r.dummy_messages = Array.fold_left ( + ) 0 dummies
        && r.per_edge_dummies = dummies
      in
      List.for_all
        (fun avoidance ->
          agrees (fun sink ->
              Engine.run ~sink ~graph:g ~kernels:(kernels ()) ~inputs:30
                ~avoidance ())
          && agrees (fun sink ->
                 P.run ~sink ~domains:2 ~graph:g ~kernels:(kernels ())
                   ~inputs:30 ~avoidance ()))
        (avoidances g))

(* Cross-shard traffic: a CS4 chain of more than 512 nodes plus chords
   that each span a quarter of the topological order, so every chord
   crosses a shard boundary at 2 and at 4 domains. The chords make the
   graph non-CS4 with far too many cycles to enumerate, so the LP
   backend supplies the table; the data computation is then
   schedule-independent and the counts must equal the sequential
   engine's at every width. *)
let test_cross_shard_chords () =
  let rng = Tutil.rng_of 23 in
  let base = Topo_gen.random_cs4 rng ~blocks:64 ~block_edges:24 ~max_cap:3 in
  let n = Graph.num_nodes base in
  Alcotest.(check bool) "graph is >= 512 nodes" true (n >= 512);
  let order = Fstream_graph.Topo.order_exn base in
  let chords =
    List.init 24 (fun _ ->
        let a = Random.State.int rng (n - (n / 4) - 1) in
        let b = a + (n / 4) + Random.State.int rng (n - a - (n / 4)) in
        (order.(a), order.(b), 1 + Random.State.int rng 3))
  in
  let g =
    Graph.make ~nodes:n
      (List.map (fun (e : Graph.edge) -> (e.src, e.dst, e.cap)) (Graph.edges base)
      @ chords)
  in
  let options = { Compiler.Options.default with backend = Compiler.Lp } in
  match Compiler.compile ~options Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok p ->
    let avoidance =
      Engine.Non_propagation (Compiler.send_thresholds g p.intervals)
    in
    let kernels = mixed_kernels g 23 in
    let seq = Engine.run ~graph:g ~kernels:(kernels ()) ~inputs:40 ~avoidance () in
    Alcotest.(check bool) "sequential completes" true
      (seq.Report.outcome = Report.Completed);
    List.iter
      (fun domains ->
        let par =
          P.run ~domains ~graph:g ~kernels:(kernels ()) ~inputs:40 ~avoidance ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "pool completes with %d domains" domains)
          true
          (par.Report.outcome = Report.Completed);
        Alcotest.(check int)
          (Printf.sprintf "data count at %d domains" domains)
          seq.Report.data_messages par.Report.data_messages;
        Alcotest.(check int)
          (Printf.sprintf "sink count at %d domains" domains)
          seq.Report.sink_data par.Report.sink_data)
      [ 2; 4 ]

(* A shut-down pool has no workers left to run an instance, so
   [submit] must refuse it rather than hand back a job whose [await]
   never returns. *)
let test_submit_after_shutdown () =
  let g = Topo_gen.pipeline ~stages:4 ~cap:2 in
  let pool = P.Pool.create ~domains:1 () in
  P.Pool.shutdown pool;
  Alcotest.check_raises "submit refused"
    (Invalid_argument "Parallel_engine.Pool.submit: pool is shut down")
    (fun () ->
      ignore
        (P.Pool.submit pool ~graph:g
           ~kernels:(Filters.for_graph g (fun _ outs -> Filters.passthrough outs))
           ~inputs:10 ~avoidance:Engine.No_avoidance ()))

(* Workers leave a stopping pool only once its run queue is empty: an
   instance still live at [shutdown] runs to its end, and its [await]
   returns the completed report afterwards. *)
let test_shutdown_finishes_live_jobs () =
  let g = Topo_gen.pipeline ~stages:8 ~cap:2 in
  List.iter
    (fun domains ->
      let pool = P.Pool.create ~domains () in
      let job =
        P.Pool.submit pool ~graph:g
          ~kernels:(Filters.for_graph g (fun _ outs -> Filters.passthrough outs))
          ~inputs:3000 ~avoidance:Engine.No_avoidance ()
      in
      P.Pool.shutdown pool;
      let r = P.Pool.await job in
      Alcotest.(check bool)
        (Printf.sprintf "completed after shutdown (%d domains)" domains)
        true
        (r.Report.outcome = Report.Completed && r.sink_data = 3000))
    [ 1; 2 ]

(* [Pool.await] keeps the outcome with the job: two threads awaiting one
   job at once, and one more await after both, get equal reports. *)
let test_await_from_two_threads () =
  let g = Topo_gen.pipeline ~stages:8 ~cap:2 in
  let pool = P.Pool.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> P.Pool.shutdown pool) @@ fun () ->
  let job =
    P.Pool.submit pool ~graph:g
      ~kernels:(Filters.for_graph g (fun _ outs -> Filters.passthrough outs))
      ~inputs:500 ~avoidance:Engine.No_avoidance ()
  in
  let there = Domain.spawn (fun () -> P.Pool.await job) in
  let here = P.Pool.await job in
  let there = Domain.join there in
  Alcotest.(check bool) "completed" true (here.Report.outcome = Report.Completed);
  Alcotest.(check bool) "both threads got the same report" true (here = there);
  Alcotest.(check bool) "and a later await too" true (P.Pool.await job = here)

(* A raising kernel stays inside its instance: on one and two domains,
   instance A's kernel raises part way through while instance B runs on
   the same pool. [await A] re-raises the kernel's exception, B still
   delivers the sequential engine's data and sink counts, and the pool
   runs a later instance to completion. *)
let test_raising_kernel_contained () =
  let ga = Topo_gen.pipeline ~stages:6 ~cap:2 in
  let pass g = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let raising v =
    let k = pass ga v in
    if v = 3 then fun ~seq ~got ->
      if seq = 40 then failwith "node 3 at seq 40" else k ~seq ~got
    else k
  in
  let gb = Topo_gen.fig4_left ~cap:2 in
  let kernels_b () =
    Filters.for_graph gb (fun v outs ->
        if v = 1 then Filters.periodic ~keep_every:3 outs
        else Filters.passthrough outs)
  in
  match Compiler.compile Compiler.Non_propagation gb with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok p ->
    let avoidance =
      Engine.Non_propagation (Compiler.send_thresholds gb p.intervals)
    in
    let seq =
      Engine.run ~graph:gb ~kernels:(kernels_b ()) ~inputs:400 ~avoidance ()
    in
    List.iter
      (fun domains ->
        let pool = P.Pool.create ~domains () in
        Fun.protect ~finally:(fun () -> P.Pool.shutdown pool) @@ fun () ->
        let at = Printf.sprintf " (%d domains)" domains in
        let a =
          P.Pool.submit pool ~graph:ga ~kernels:raising ~inputs:200
            ~avoidance:Engine.No_avoidance ()
        in
        let b =
          P.Pool.submit pool ~graph:gb ~kernels:(kernels_b ()) ~inputs:400
            ~avoidance ()
        in
        Alcotest.check_raises ("await A re-raises" ^ at)
          (Failure "node 3 at seq 40") (fun () -> ignore (P.Pool.await a));
        let rb = P.Pool.await b in
        Alcotest.(check bool) ("B completes" ^ at) true
          (rb.Report.outcome = Report.Completed);
        Alcotest.(check int) ("B's data count" ^ at) seq.Report.data_messages
          rb.data_messages;
        Alcotest.(check int) ("B's sink count" ^ at) seq.Report.sink_data
          rb.sink_data;
        let c =
          P.Pool.await
            (P.Pool.submit pool ~graph:ga ~kernels:(pass ga) ~inputs:50
               ~avoidance:Engine.No_avoidance ())
        in
        Alcotest.(check bool) ("a later instance completes" ^ at) true
          (c.Report.outcome = Report.Completed && c.sink_data = 50))
      [ 1; 2 ]

(* No instance is starved: on a one-domain pool a long instance, whose
   claims never run out of work, yields to a short one submitted after
   it. The long source spins until the short instance is in the pool,
   so the worker is inside a long claim when it arrives; the short
   sink reads the long sink's count while the long instance is paused,
   and that reading must fall short of the long instance's total. *)
let test_no_instance_starved () =
  let pass g = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let gl = Topo_gen.pipeline ~stages:8 ~cap:2 in
  let gs = Topo_gen.pipeline ~stages:2 ~cap:2 in
  let long_inputs = 4000 in
  let go = Atomic.make false in
  let long_sunk = Atomic.make 0 and seen = Atomic.make (-1) in
  let long_k v =
    let k = pass gl v in
    if v = 0 then fun ~seq ~got ->
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      k ~seq ~got
    else if v = 8 then fun ~seq ~got ->
      Atomic.incr long_sunk;
      k ~seq ~got
    else k
  in
  let short_k v =
    let k = pass gs v in
    if v = 2 then fun ~seq ~got ->
      ignore (Atomic.compare_and_set seen (-1) (Atomic.get long_sunk));
      k ~seq ~got
    else k
  in
  let pool = P.Pool.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> P.Pool.shutdown pool) @@ fun () ->
  let long =
    P.Pool.submit pool ~graph:gl ~kernels:long_k ~inputs:long_inputs
      ~avoidance:Engine.No_avoidance ()
  in
  let short =
    P.Pool.submit pool ~graph:gs ~kernels:short_k ~inputs:10
      ~avoidance:Engine.No_avoidance ()
  in
  Atomic.set go true;
  let rs = P.Pool.await short and rl = P.Pool.await long in
  Alcotest.(check bool) "both complete" true
    (rs.Report.outcome = Report.Completed && rl.Report.outcome = Report.Completed);
  Alcotest.(check int) "long delivers everything" long_inputs rl.sink_data;
  Alcotest.(check bool) "short sink fired" true (Atomic.get seen >= 0);
  Alcotest.(check bool)
    (Printf.sprintf "short ran before long finished (long at %d of %d)"
       (Atomic.get seen) long_inputs)
    true
    (Atomic.get seen < long_inputs)

let suite =
  [
    Alcotest.test_case "fig2 deadlocks across domains" `Quick
      test_fig2_deadlocks;
    Alcotest.test_case "fig2 avoided across domains" `Quick test_fig2_avoided;
    Alcotest.test_case "matches sequential engine" `Quick
      test_matches_sequential_engine;
    Alcotest.test_case "pipeline flows in parallel" `Quick
      test_pipeline_parallel;
    Alcotest.test_case "64-node cap gone: 4096-node pipeline" `Quick
      test_node_cap_gone;
    Alcotest.test_case "1k-node cs4 chain matches sequential" `Quick
      test_large_cs4_chain;
    Alcotest.test_case "slow kernel is not a deadlock" `Quick
      test_slow_kernel_no_false_deadlock;
    Alcotest.test_case "blocked emitted once per episode" `Quick
      test_blocked_once_per_episode;
    Alcotest.test_case "wide split node (parallel)" `Quick
      test_wide_split_parallel;
    Alcotest.test_case "512-node ladder differential" `Quick
      test_big_ladder_differential;
    Alcotest.test_case "submit after shutdown raises" `Quick
      test_submit_after_shutdown;
    Alcotest.test_case "cross-shard chords match sequential" `Quick
      test_cross_shard_chords;
    Alcotest.test_case "two threads await one job" `Quick
      test_await_from_two_threads;
    Alcotest.test_case "a raising kernel stays in its instance" `Quick
      test_raising_kernel_contained;
    Alcotest.test_case "no instance is starved" `Quick test_no_instance_starved;
    Alcotest.test_case "shutdown finishes live jobs" `Quick
      test_shutdown_finishes_live_jobs;
    prop_no_avoidance_agrees;
    prop_non_propagation_agrees;
    prop_propagation_agrees;
    prop_avoidance_sound_in_parallel;
  ]
  @ List.map prop_one_shard one_shard_families
  @ List.map prop_counts_match_pushes one_shard_families
