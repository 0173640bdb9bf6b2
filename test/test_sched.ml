(* Differential testing of the sequential engine's worklist against the
   reference sweep ([Tutil.sweep]), which visits every node every
   round: identical [Report.t] (outcome, rounds, message counts,
   per-edge dummy counts, wedge snapshot) on randomized workloads of
   every generator family, on graphs of more than 512 nodes, and on
   the paper's figure topologies, under all three
   avoidance modes. *)

open Fstream_core
open Fstream_runtime
open Fstream_workloads

(* Fresh kernels per run: the engines mutate nothing shared, but the
   Bernoulli filters draw from an RNG, so each engine needs its own
   identically-seeded copy. *)
let bernoulli_kernels ?(keep = 0.6) g seed =
  let rng = Random.State.make [| seed; 0xd1f |] in
  Filters.for_graph g (fun _ outs -> Filters.bernoulli rng ~keep outs)

let wrappers g =
  let none = Some Engine.No_avoidance in
  let prop =
    match Compiler.compile Compiler.Propagation g with
    | Ok p ->
      Some (Engine.Propagation (Compiler.propagation_thresholds g p.intervals))
    | Error _ -> None
  in
  let nonprop =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p -> Some (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
    | Error _ -> None
  in
  [ none; prop; nonprop ]

let same_stats ?max_rounds g ~kernels_of ~inputs avoidance =
  Engine.run ?max_rounds ~graph:g ~kernels:(kernels_of ()) ~inputs ~avoidance
    ()
  = Tutil.sweep ?max_rounds ~graph:g ~kernels:(kernels_of ()) ~inputs
      ~avoidance ()

let differential ?max_rounds ?keep ?(inputs = 30) g seed =
  List.for_all
    (function
      | None -> true
      | Some avoidance ->
        same_stats ?max_rounds g
          ~kernels_of:(fun () -> bernoulli_kernels ?keep g seed)
          ~inputs avoidance)
    (wrappers g)

let families =
  [
    ("SP", 300, fun seed -> Tutil.random_sp_of_seed seed);
    ("ladder", 300, fun seed -> Tutil.random_ladder_of_seed seed);
    ("random CS4", 150, fun seed -> Tutil.random_cs4_of_seed seed);
    (* chains long enough to span several 32-node worklist words *)
    ( "CS4 chain",
      100,
      fun seed -> Tutil.random_cs4_of_seed ~max_blocks:16 seed );
    ("random dense", 150, Tutil.random_dense_of_seed);
    ("random DAG", 150, Tutil.random_dag_of_seed);
    ( "diamond chain",
      150,
      fun seed ->
        Topo_gen.diamond_chain ~bypass:(seed mod 2 = 1)
          ~diamonds:(1 + (seed / 2 mod 8))
          ~cap:(1 + (seed mod 5)) () );
  ]

let prop_family (name, count, family) =
  Tutil.qtest ~count
    (Printf.sprintf "engine = sweep at batch 1 on %s workloads" name)
    Tutil.seed_gen
    (fun seed -> differential (family seed) seed)

(* The same differential cut short by a round budget below what 30
   inputs need to drain, so most runs end [Budget_exhausted] part way
   through: the worklist must stop on the sweep's round with the same
   partial counts. *)
let prop_budget (name, count, family) =
  Tutil.qtest ~count
    (Printf.sprintf "engine = sweep under a round budget on %s workloads" name)
    Tutil.seed_gen
    (fun seed -> differential ~max_rounds:(1 + (seed mod 30)) (family seed) seed)

(* Two graphs of more than 512 nodes: a pipeline nearly lossless per
   stage, so data reaches deep into it, and a 64-block CS4 chain. *)
let test_large () =
  let pipeline = Topo_gen.pipeline ~stages:600 ~cap:2 in
  let chain =
    Topo_gen.random_cs4
      (Random.State.make [| 64 |])
      ~blocks:64 ~block_edges:24 ~max_cap:3
  in
  List.iter
    (fun (name, keep, g) ->
      Alcotest.(check bool)
        (name ^ ": above 512 nodes") true
        (Fstream_graph.Graph.num_nodes g > 512);
      Alcotest.(check bool)
        (name ^ ": engine = sweep at batch 1")
        true
        (differential ~keep ~inputs:40 g 7))
    [
      ("600-stage pipeline", 0.99, pipeline); ("64-block CS4 chain", 0.8, chain);
    ]

(* Directed cases: the paper's figure topologies with their canonical
   workloads, checked field by field for a readable failure. *)
let check_identical name ~kernels_of ~inputs g avoidance =
  let r =
    Engine.run ~graph:g ~kernels:(kernels_of ()) ~inputs ~avoidance ()
  and s = Tutil.sweep ~graph:g ~kernels:(kernels_of ()) ~inputs ~avoidance () in
  Alcotest.(check bool)
    (name ^ ": outcome") true
    (r.Report.outcome = s.Report.outcome);
  Alcotest.(check (option int)) (name ^ ": rounds") (Report.rounds s)
    (Report.rounds r);
  Alcotest.(check int) (name ^ ": data") s.data_messages r.data_messages;
  Alcotest.(check int) (name ^ ": dummies") s.dummy_messages r.dummy_messages;
  Alcotest.(check int) (name ^ ": sink data") s.sink_data r.sink_data;
  Alcotest.(check int) (name ^ ": dropped") s.dropped_dummies r.dropped_dummies;
  Alcotest.(check (array int))
    (name ^ ": per-edge dummies") s.per_edge_dummies r.per_edge_dummies;
  Alcotest.(check bool) (name ^ ": wedge") true
    (Report.wedge r = Report.wedge s);
  r

let test_fig1 () =
  let g = Topo_gen.fig1_split_join ~branches:4 ~cap:2 in
  let kernels_of () =
    let rng = Random.State.make [| 11 |] in
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.route_one rng outs else Filters.passthrough outs)
  in
  let thresholds =
    match Compiler.compile Compiler.Non_propagation g with
    | Ok p -> Compiler.send_thresholds g p.intervals
    | Error e -> Alcotest.fail (Compiler.error_to_string e)
  in
  let s =
    check_identical "fig1" ~kernels_of ~inputs:60 g
      (Engine.Non_propagation thresholds)
  in
  Alcotest.(check bool) "fig1 completes" true (s.Report.outcome = Report.Completed)

let test_fig2 () =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let kernels_of () =
    Filters.for_graph g (fun v outs ->
        if v = 0 then Filters.block_edge 2 outs else Filters.passthrough outs)
  in
  (* bare: both must wedge in the same round with the same frozen
     snapshot *)
  let s = check_identical "fig2 bare" ~kernels_of ~inputs:25 g Engine.No_avoidance in
  Alcotest.(check bool) "fig2 deadlocks bare" true (s.Report.outcome = Report.Deadlocked);
  Alcotest.(check bool) "wedge captured" true (Report.wedge s <> None);
  (* protected: both complete with the same dummy traffic *)
  match Compiler.compile Compiler.Propagation g with
  | Ok p ->
    let s =
      check_identical "fig2 propagation" ~kernels_of ~inputs:25 g
        (Engine.Propagation (Compiler.propagation_thresholds g p.intervals))
    in
    Alcotest.(check bool) "fig2 avoided" true (s.Report.outcome = Report.Completed)
  | Error e -> Alcotest.fail (Compiler.error_to_string e)

let test_eos_vs_deadlock () =
  (* the discrimination the EOS machinery exists for: a starved sink is
     a completed (drained) run on an acyclic pipeline, a genuine wedge
     on the Fig. 2 cycle — the worklist must not mistake its own empty
     state for either *)
  let pipeline = Topo_gen.pipeline ~stages:3 ~cap:2 in
  let drop_all_of () =
    Filters.for_graph pipeline (fun v outs ->
        if v = 1 then Filters.drop_all outs else Filters.passthrough outs)
  in
  let s =
    check_identical "starved pipeline" ~kernels_of:drop_all_of ~inputs:30
      pipeline Engine.No_avoidance
  in
  Alcotest.(check bool) "drained, not deadlocked" true
    (s.Report.outcome = Report.Completed);
  Alcotest.(check int) "sink starved" 0 s.sink_data;
  let fig2 = Topo_gen.fig2_triangle ~cap:2 in
  let blocking_of () =
    Filters.for_graph fig2 (fun v outs ->
        if v = 0 then Filters.block_edge 2 outs else Filters.passthrough outs)
  in
  let s =
    check_identical "fig2 wedge" ~kernels_of:blocking_of ~inputs:30 fig2
      Engine.No_avoidance
  in
  Alcotest.(check bool) "deadlocked, not drained" true
    (s.Report.outcome = Report.Deadlocked)

let test_budget_parity () =
  (* Budget_exhausted must trip on the same round for both *)
  let g = Topo_gen.pipeline ~stages:4 ~cap:1 in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  let r =
    Engine.run ~max_rounds:7 ~graph:g ~kernels ~inputs:100
      ~avoidance:Engine.No_avoidance ()
  and s =
    Tutil.sweep ~max_rounds:7 ~graph:g ~kernels ~inputs:100
      ~avoidance:Engine.No_avoidance ()
  in
  Alcotest.(check bool) "both out of budget" true
    (r.Report.outcome = Report.Budget_exhausted
    && s.Report.outcome = Report.Budget_exhausted);
  Alcotest.(check bool) "identical stats at the budget" true (r = s)

(* ------------------------------------------------------------------ *)
(* Dummy accounting regression: the wrapper semantics the scheduler
   must not disturb. Every dummy a node decides to emit (forwarded
   under Propagation, or originated by a threshold coming due) enters
   the per-channel dummy slot; from there it is either delivered
   (counted in [per_edge_dummies] / [dummy_messages]) or superseded
   (counted in [dropped_dummies]). Conservation: on a completed run,
   emitted = delivered + dropped, and the engine and the sweep agree
   on every term. *)

let dummy_emissions ring =
  List.length
    (List.filter
       (function Fstream_obs.Event.Dummy_emitted _ -> true | _ -> false)
       (Fstream_obs.Ring.contents ring))

let test_dummy_accounting () =
  (* a seeded S1-style workload: random CS4 topology, Bernoulli
     filtering everywhere, Propagation wrapper so both forwarded and
     originated dummies occur *)
  let rng = Random.State.make [| 31337; 6 |] in
  let g = Topo_gen.random_cs4 rng ~blocks:3 ~block_edges:6 ~max_cap:3 in
  let avoidance =
    match Compiler.compile Compiler.Propagation g with
    | Ok p -> Engine.Propagation (Compiler.propagation_thresholds g p.intervals)
    | Error e -> Alcotest.fail (Compiler.error_to_string e)
  in
  let traced run =
    let ring = Fstream_obs.Ring.create () in
    let s = run (Fstream_obs.Ring.sink ring) (bernoulli_kernels g 424242) in
    Alcotest.(check int) "complete event log" 0 (Fstream_obs.Ring.dropped ring);
    (s, dummy_emissions ring)
  in
  let check name ((s : Report.t), emitted) =
    Alcotest.(check bool) (name ^ ": completed") true
      (s.Report.outcome = Report.Completed);
    Alcotest.(check int)
      (name ^ ": per-edge dummies sum to the total")
      s.dummy_messages
      (Array.fold_left ( + ) 0 s.per_edge_dummies);
    Alcotest.(check int)
      (name ^ ": emitted = delivered + dropped")
      emitted
      (s.dummy_messages + s.dropped_dummies);
    Alcotest.(check bool)
      (name ^ ": dropped bounded by emitted")
      true
      (s.dropped_dummies <= emitted);
    Alcotest.(check bool) (name ^ ": dummies were exercised") true (emitted > 0)
  in
  let rs, re =
    traced (fun sink kernels ->
        Engine.run ~sink ~graph:g ~kernels ~inputs:80 ~avoidance ())
  and ss, se =
    traced (fun sink kernels ->
        Tutil.sweep ~sink ~graph:g ~kernels ~inputs:80 ~avoidance ())
  in
  check "engine" (rs, re);
  check "sweep" (ss, se);
  Alcotest.(check int) "same emission count" se re;
  Alcotest.(check bool) "same stats" true (rs = ss)

let suite =
  [
    Alcotest.test_case "fig1 split/join" `Quick test_fig1;
    Alcotest.test_case "fig2 triangle" `Quick test_fig2;
    Alcotest.test_case "EOS vs deadlock" `Quick test_eos_vs_deadlock;
    Alcotest.test_case "budget parity" `Quick test_budget_parity;
    Alcotest.test_case "dummy accounting" `Quick test_dummy_accounting;
    Alcotest.test_case "above 512 nodes" `Quick test_large;
  ]
  @ List.map prop_family families
  @ List.map prop_budget families
