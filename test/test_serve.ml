(* The multi-tenant serving layer: admission control (lint at the front
   door), the compile-once registry (physically shared threshold tables
   across fingerprint-equal tenants), and serve-session execution being
   nothing but a run on the pool — pinned by differential suites
   against direct runs on both engines. *)

open Fstream_runtime
open Fstream_workloads
module Graph = Fstream_graph.Graph
module Serve = Fstream_serve.Serve
module Parallel_engine = Fstream_parallel.Parallel_engine
module Lint = Fstream_analysis.Lint
module Compiler = Fstream_core.Compiler
module Thresholds = Fstream_core.Thresholds

(* One long-lived server shared by the property suites (its pool's
   domains are joined at exit); tests asserting exact counter values
   create their own. *)
let server =
  lazy
    (let t = Serve.create ~domains:2 () in
     at_exit (fun () -> Serve.shutdown t);
     t)

let graph_of_family seed =
  match seed mod 3 with
  | 0 -> Tutil.random_sp_of_seed ~max_edges:24 seed
  | 1 -> Tutil.random_ladder_of_seed ~max_rungs:8 seed
  | _ -> Tutil.random_cs4_of_seed seed

(* node-deterministic kernels, rebuilt identically for every engine *)
let mixed_kernels g seed () =
  Filters.for_graph g (fun v outs ->
      match v mod 3 with
      | 0 -> Filters.bernoulli (Random.State.make [| seed; v |]) ~keep:0.7 outs
      | 1 -> Filters.periodic ~keep_every:(2 + (seed mod 3)) outs
      | _ -> Filters.passthrough outs)

(* paper-pattern filtering (sources and single-output relays only) —
   the regime where the Propagation wrapper is sound *)
let paper_pattern_kernels g seed () =
  Filters.for_graph g (fun v outs ->
      if Graph.in_degree g v = 0 || Graph.out_degree g v = 1 then
        Filters.bernoulli (Random.State.make [| seed; v |]) ~keep:0.6 outs
      else Filters.passthrough outs)

(* ----- registry: one compile, physical sharing ----- *)

(* Two tenants whose graphs are distinct values but fingerprint-equal
   (same generator, same seed) must receive the physically same
   avoidance value — same [Thresholds.t], compiled once. *)
let prop_registry_shares_physically =
  Tutil.qtest ~count:60 "fingerprint-equal tenants share one table (==)"
    Tutil.seed_gen (fun seed ->
      let t = Lazy.force server in
      let g1 = graph_of_family seed in
      let g2 = graph_of_family seed in
      let before = (Serve.stats t).Serve.compiles in
      match
        ( Serve.admit t ~mode:Serve.Non_propagation g1,
          Serve.admit t ~mode:Serve.Non_propagation g2 )
      with
      | Ok s1, Ok s2 ->
        let after = (Serve.stats t).Serve.compiles in
        Serve.avoidance s1 == Serve.avoidance s2
        (* at most one fresh compile for the pair; zero when an earlier
           property case already admitted this fingerprint *)
        && after - before <= 1
      | Error _, Error _ -> true (* same verdict for structural twins *)
      | _ -> false)

let test_no_avoidance_needs_no_table () =
  let t = Lazy.force server in
  let g = Topo_gen.pipeline ~stages:4 ~cap:2 in
  let before = (Serve.stats t).Serve.compiles in
  match Serve.admit t ~mode:Serve.No_avoidance g with
  | Error _ -> Alcotest.fail "pipeline rejected"
  | Ok s ->
    Alcotest.(check bool) "no table" true
      (Serve.avoidance s = Engine.No_avoidance);
    Alcotest.(check int) "no compile" before (Serve.stats t).Serve.compiles

(* ----- admission control ----- *)

let test_butterfly_rejected () =
  let t = Lazy.force server in
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let before = (Serve.stats t).Serve.rejections in
  match Serve.admit t ~mode:Serve.Non_propagation g with
  | Ok _ -> Alcotest.fail "butterfly admitted"
  | Error (Serve.Lint_rejected ds) ->
    Alcotest.(check bool) "carries the FS201 non-CS4 finding" true
      (List.exists (fun (d : Lint.diagnostic) -> d.code = "FS201") ds);
    Alcotest.(check bool) "only Error-severity findings as reasons" true
      (List.for_all (fun (d : Lint.diagnostic) -> d.severity = Lint.Error) ds);
    Alcotest.(check int) "rejection counted" (before + 1)
      (Serve.stats t).Serve.rejections
  | Error r ->
    Alcotest.failf "wrong rejection: %a" (fun ppf -> Serve.pp_rejection ppf) r

let test_session_misuse () =
  let t = Lazy.force server in
  let g = Topo_gen.pipeline ~stages:2 ~cap:2 in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  match Serve.admit t ~mode:Serve.No_avoidance g with
  | Error _ -> Alcotest.fail "pipeline rejected"
  | Ok s ->
    (try
       ignore (Serve.await s);
       Alcotest.fail "await before start did not raise"
     with Invalid_argument _ -> ());
    Serve.start t ~kernels ~inputs:5 s;
    (try
       Serve.start t ~kernels ~inputs:5 s;
       Alcotest.fail "double start did not raise"
     with Invalid_argument _ -> ());
    let r = Serve.await s in
    Alcotest.(check bool) "completed" true (r.Report.outcome = Report.Completed);
    (* await is idempotent once the report exists *)
    Alcotest.(check int) "cached report" r.Report.sink_data
      (Serve.await s).Report.sink_data

(* After [Serve.shutdown] the pool has no workers: [start] must raise
   instead of launching a run that [await] would wait on forever. *)
let test_start_after_shutdown () =
  let t = Serve.create ~domains:1 () in
  let g = Topo_gen.pipeline ~stages:4 ~cap:2 in
  let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
  match Serve.admit t ~mode:Serve.No_avoidance g with
  | Error _ -> Alcotest.fail "pipeline rejected"
  | Ok s ->
    Serve.shutdown t;
    Alcotest.check_raises "start refused"
      (Invalid_argument "Parallel_engine.Pool.submit: pool is shut down")
      (fun () -> Serve.start t ~kernels ~inputs:10 s);
    Alcotest.check_raises "never started"
      (Invalid_argument "Serve.await: session was never started") (fun () ->
        ignore (Serve.await s))

(* ----- the acceptance bar: >= 100 concurrent tenants, >= 3 distinct
   topologies, one pool, exactly one compile per fingerprint ----- *)

let test_hundred_twenty_tenants_three_topologies () =
  let t = Serve.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let topologies =
    [|
      Topo_gen.pipeline ~stages:6 ~cap:2;
      Topo_gen.fig4_left ~cap:2;
      Topo_gen.random_cs4 (Tutil.rng_of 11) ~blocks:3 ~block_edges:8 ~max_cap:3;
    |]
  in
  let tenants = 120 and inputs = 12 in
  let sessions =
    Array.init tenants (fun i ->
        let g = topologies.(i mod 3) in
        match
          Serve.admit t ~name:(Printf.sprintf "t%03d" i)
            ~mode:Serve.Non_propagation g
        with
        | Error r ->
          Alcotest.failf "tenant %d rejected: %a" i
            (fun ppf -> Serve.pp_rejection ppf)
            r
        | Ok s -> s)
  in
  Alcotest.(check int) "one compile per distinct fingerprint" 3
    (Serve.stats t).Serve.compiles;
  Alcotest.(check int) "all admitted" tenants (Serve.stats t).Serve.tenants;
  (* physical sharing across all tenants of each topology *)
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d shares its topology's table" i)
        true
        (Serve.avoidance s == Serve.avoidance sessions.(i mod 3)))
    sessions;
  (* start every tenant before awaiting any: all 120 instances live on
     the one pool at once, interleaved under the fair-share quota *)
  Array.iteri
    (fun i s ->
      Serve.start t
        ~kernels:(mixed_kernels topologies.(i mod 3) i ())
        ~inputs s)
    sessions;
  let reports = Array.map Serve.await sessions in
  (* Kahn determinism: each tenant's counts equal a direct sequential
     run of the same kernels, whatever the 120-way interleaving did *)
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d completed" i)
        true
        (r.Report.outcome = Report.Completed);
      let direct =
        Engine.run ~graph:topologies.(i mod 3)
          ~kernels:(mixed_kernels topologies.(i mod 3) i ())
          ~inputs ~avoidance:(Serve.avoidance sessions.(i)) ()
      in
      Alcotest.(check int)
        (Printf.sprintf "tenant %d data count" i)
        direct.Report.data_messages r.Report.data_messages;
      Alcotest.(check int)
        (Printf.sprintf "tenant %d sink count" i)
        direct.Report.sink_data r.Report.sink_data)
    reports

(* ----- one compile, one lint, one registry ----- *)

(* Draw 34 of the 40-draw random_sp protocol (one generator seeded 1,
   draw i at 15 + 75i/39 target edges, capacities up to 4): an 80-edge
   SP-DAG with more than 200,000 undirected simple cycles. *)
let over_budget_sp () =
  let rng = Random.State.make [| 1 |] in
  let draw i =
    Topo_gen.random_sp rng ~target_edges:(15 + (i * 75 / 39)) ~max_cap:4
  in
  for i = 0 to 33 do
    ignore (draw i)
  done;
  draw 34

(* No rule reads a CS4 graph's cycles under Non-Propagation, so the
   cycle budget cannot make its verdict incomplete: it is admitted with
   the table of a cache-free compile. Under Propagation FS303 reads
   them, and the same graph stays unverified. *)
let test_over_budget_cs4_admitted () =
  let g = over_budget_sp () in
  Alcotest.(check bool) "CS4" true (Fstream_ladder.Cs4.is_cs4 g);
  Alcotest.(check bool) "more than 200,000 cycles" true
    (match
       Fstream_graph.Cycles.count
         ~max_cycles:Lint.default_config.Lint.max_cycles g
     with
    | _ -> false
    | exception Fstream_graph.Cycles.Budget_exceeded _ -> true);
  let t = Serve.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  (match Serve.admit t ~mode:Serve.Non_propagation g with
  | Error r ->
    Alcotest.failf "over-budget CS4 graph refused: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r
  | Ok s -> (
    match
      (Serve.avoidance s, Compiler.compile Compiler.Non_propagation g)
    with
    | Engine.Non_propagation th, Ok p ->
      Alcotest.(check (array (option int)))
        "the table of a cache-free compile"
        (Thresholds.to_array (Compiler.send_thresholds g p.Compiler.intervals))
        (Thresholds.to_array th)
    | _ -> Alcotest.fail "expected a non-propagation table"));
  match Serve.admit t ~mode:Serve.Propagation g with
  | Error (Serve.Analysis_incomplete _) -> ()
  | Ok _ -> Alcotest.fail "admitted under propagation without FS303"
  | Error r ->
    Alcotest.failf "wrong rejection: %a" (fun ppf -> Serve.pp_rejection ppf) r

(* A non-CS4 topology far past the cycle budget (the 7 x 3
   layered-dense demo, about 28 million cycles) is admitted under the
   LP backend: lint decides FS201/FS202 from the classification and
   searches only the rejected block, so the analysis completes, and the
   tenant runs to completion on the shared table. *)
let test_layered_dense_lp_admitted () =
  let g = Topo_gen.layered_dense ~layers:7 ~width:3 ~cap:2 in
  let t = Serve.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  match Serve.admit t ~backend:Compiler.Lp ~mode:Serve.Non_propagation g with
  | Error r ->
    Alcotest.failf "layered-dense refused under lp: %a"
      (fun ppf -> Serve.pp_rejection ppf)
      r
  | Ok s ->
    let r = Serve.run t ~kernels:(mixed_kernels g 1 ()) ~inputs:20 s in
    Alcotest.(check bool) "completed" true (r.Report.outcome = Report.Completed)

(* A spec'd admission on a registry hit re-lints the registry's plan
   with the spec: its verdict carries exactly the Error findings of a
   fresh Lint.run with that spec, and an admissible spec gets the
   shared table without another compile. *)
let test_spec_on_registry_hit () =
  let t = Serve.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) @@ fun () ->
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let spec behaviors =
    { App_spec.graph = g; behaviors; default = App_spec.Passthrough }
  in
  let s0 =
    match Serve.admit t ~mode:Serve.Non_propagation g with
    | Ok s -> s
    | Error _ -> Alcotest.fail "fig2 refused"
  in
  let bad = spec [ (7, App_spec.Drop); (1, App_spec.Block 99) ] in
  (match Serve.admit t ~spec:bad ~mode:Serve.Non_propagation g with
  | Error (Serve.Lint_rejected ds) ->
    let fresh =
      Lint.run ~config:{ Lint.default_config with Lint.spec = Some bad } g
    in
    Alcotest.(check bool) "the Error findings of a fresh spec'd lint" true
      (ds
      = List.filter
          (fun (d : Lint.diagnostic) -> d.severity = Lint.Error)
          fresh.Lint.diagnostics);
    Alcotest.(check int) "two FS401 findings" 2 (List.length ds)
  | Ok _ -> Alcotest.fail "spec binding unknown nodes admitted"
  | Error r ->
    Alcotest.failf "wrong rejection: %a" (fun ppf -> Serve.pp_rejection ppf) r);
  (match
     Serve.admit t
       ~spec:(spec [ (0, App_spec.Drop); (0, App_spec.Passthrough) ])
       ~mode:Serve.Non_propagation g
   with
  | Ok s ->
    Alcotest.(check bool) "the registry's table" true
      (Serve.avoidance s == Serve.avoidance s0)
  | Error _ -> Alcotest.fail "warning-only spec refused");
  Alcotest.(check int) "one compile" 1 (Serve.stats t).Serve.compiles

(* ----- differential: serve session = direct run, both engines ----- *)

let serve_mode_of = function
  | Engine.No_avoidance -> Serve.No_avoidance
  | Engine.Propagation _ -> Serve.Propagation
  | Engine.Non_propagation _ -> Serve.Non_propagation

(* Run one admitted session and the same application directly on both
   engines; all three reports must agree on outcome + data/sink counts
   (the schedule-independent fields). *)
let agree_all ~graph ~kernels ~inputs session =
  let t = Lazy.force server in
  let avoidance = Serve.avoidance session in
  let served = Serve.run t ~kernels:(kernels ()) ~inputs session in
  let direct_seq =
    Engine.run ~graph ~kernels:(kernels ()) ~inputs ~avoidance ()
  in
  let direct_pool =
    Parallel_engine.run ~domains:2 ~graph ~kernels:(kernels ()) ~inputs
      ~avoidance ()
  in
  let agree (a : Report.t) (b : Report.t) =
    a.Report.outcome = b.Report.outcome
    && a.Report.data_messages = b.Report.data_messages
    && a.Report.sink_data = b.Report.sink_data
  in
  agree served direct_seq && agree served direct_pool

let prop_serve_eq_direct_no_avoidance =
  Tutil.qtest ~count:300 "serve = direct run, no avoidance (wedges too)"
    Tutil.seed_gen (fun seed ->
      let t = Lazy.force server in
      let g = graph_of_family seed in
      match Serve.admit t ~mode:Serve.No_avoidance g with
      | Error _ -> true (* lint-rejected topology: nothing to serve *)
      | Ok s ->
        serve_mode_of (Serve.avoidance s) = Serve.No_avoidance
        && agree_all ~graph:g ~kernels:(mixed_kernels g seed) ~inputs:24 s)

let prop_serve_eq_direct_non_propagation =
  Tutil.qtest ~count:300 "serve = direct run, non-propagation"
    Tutil.seed_gen (fun seed ->
      let t = Lazy.force server in
      let g = graph_of_family seed in
      match Serve.admit t ~mode:Serve.Non_propagation g with
      | Error _ -> true
      | Ok s ->
        serve_mode_of (Serve.avoidance s) = Serve.Non_propagation
        && agree_all ~graph:g ~kernels:(mixed_kernels g seed) ~inputs:24 s)

let prop_serve_eq_direct_propagation =
  Tutil.qtest ~count:300
    "serve = direct run, propagation (paper-pattern filtering)"
    Tutil.seed_gen (fun seed ->
      let t = Lazy.force server in
      let g = graph_of_family seed in
      match Serve.admit t ~mode:Serve.Propagation g with
      | Error _ -> true
      | Ok s ->
        serve_mode_of (Serve.avoidance s) = Serve.Propagation
        && agree_all ~graph:g ~kernels:(paper_pattern_kernels g seed)
             ~inputs:24 s)

let suite =
  [
    prop_registry_shares_physically;
    Alcotest.test_case "no-avoidance mode needs no table" `Quick
      test_no_avoidance_needs_no_table;
    Alcotest.test_case "butterfly rejected at admission (FS201)" `Quick
      test_butterfly_rejected;
    Alcotest.test_case "session misuse raises" `Quick test_session_misuse;
    Alcotest.test_case "start after shutdown raises" `Quick
      test_start_after_shutdown;
    Alcotest.test_case "120 tenants, 3 topologies, 3 compiles, one pool"
      `Quick test_hundred_twenty_tenants_three_topologies;
    Alcotest.test_case "over-budget CS4 admitted under non-propagation"
      `Quick test_over_budget_cs4_admitted;
    Alcotest.test_case "layered-dense admitted under lp" `Quick
      test_layered_dense_lp_admitted;
    Alcotest.test_case "spec'd admission re-lints the registry's plan" `Quick
      test_spec_on_registry_hit;
    prop_serve_eq_direct_no_avoidance;
    prop_serve_eq_direct_non_propagation;
    prop_serve_eq_direct_propagation;
  ]
