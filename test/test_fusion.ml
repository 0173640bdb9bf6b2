(* Kernel fusion: the partition rules, interval preservation, and
   fused = unfused equivalence.

   Three layers of evidence, matching the safety argument in
   lib/core/fusion.mli:

   - structural: fusable edges are exactly the sole-in/sole-out bridges
     (= the SP series spine), the partition is a well-formed chain
     decomposition, and the derived interval table equals recompiling
     the same algorithm on the fused graph;
   - differential: on random SP / ladder / CS4 topologies under all
     three avoidance modes, a fused run reproduces the unfused run's
     outcome, sink count, per-original-node firing counts and
     per-boundary-channel data counts — sequentially and on the pool;
   - model-checked: Verify.check reaches a wedge on the fused plan iff
     it does on the original, including deliberately weakened tables
     and the paper-literal Propagation tables that are genuinely unsafe
     on some instances, so the iff is exercised in both verdicts. *)

open Fstream_core
open Fstream_runtime
open Fstream_workloads
module Graph = Fstream_graph.Graph
module Articulation = Fstream_graph.Articulation
module Topo = Fstream_graph.Topo
module Sp_tree = Fstream_spdag.Sp_tree
module Sp_recognize = Fstream_spdag.Sp_recognize
module P = Fstream_parallel.Parallel_engine
module Metrics = Fstream_obs.Metrics
module Ring = Fstream_obs.Ring
module Sink = Fstream_obs.Sink
module Event = Fstream_obs.Event
module Verify = Fstream_verify.Verify

let ids_of_members m = Array.map Array.to_list m |> Array.to_list

let check_members msg expected (f : Fusion.t) =
  Alcotest.(check (list (list int))) msg expected (ids_of_members f.members)

(* ----- fixtures: one per critical-boundary kind ----- *)

let test_pipeline_chain () =
  let g = Topo_gen.pipeline ~stages:8 ~cap:2 in
  let f = Fusion.fuse g in
  check_members "everything but the sink fuses"
    [ [ 0; 1; 2; 3; 4; 5; 6; 7 ]; [ 8 ] ]
    f;
  Alcotest.(check int) "one boundary channel" 1 (Graph.num_edges f.graph);
  Alcotest.(check int) "it is the original sink edge" 7 f.orig_edge.(0);
  Alcotest.(check int) "capacity preserved" 2 (Graph.edge f.graph 0).cap;
  Alcotest.(check int) "7 channels collapsed" 7 (Fusion.internal_edges f)

let test_splitter_boundary () =
  (* 0 -> 1 -> 2, then 2 splits to sinks 3 and 4: the splitter may tail
     a chain, its out-edges are boundaries *)
  let g = Graph.make ~nodes:5 [ (0, 1, 2); (1, 2, 2); (2, 3, 1); (2, 4, 1) ] in
  let f = Fusion.fuse g in
  check_members "chain ends at the splitter" [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ] ] f

let test_merger_boundary () =
  (* sources 0 and 1 merge at 2, then 2 -> 3 -> 4: the merger may head
     a chain, its in-edges are boundaries; the sink stays cut *)
  let g = Graph.make ~nodes:5 [ (0, 2, 2); (1, 2, 2); (2, 3, 1); (3, 4, 1) ] in
  let f = Fusion.fuse g in
  check_members "chain starts at the merger" [ [ 0 ]; [ 1 ]; [ 2; 3 ]; [ 4 ] ] f

let test_multiuse_boundary () =
  (* parallel edges are 2-cycles: neither copy is a bridge, nothing
     fuses in a diamond chain *)
  let g = Topo_gen.diamond_chain ~diamonds:3 ~cap:2 () in
  let f = Fusion.fuse g in
  Alcotest.(check bool) "identity partition" true (Fusion.is_identity f)

let test_cycle_boundary () =
  (* fig2's B has sole in and sole out, but both edges lie on the
     triangle: fusing them would delete the cycle the intervals
     protect *)
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let f = Fusion.fuse g in
  Alcotest.(check bool) "identity partition" true (Fusion.is_identity f)

let test_filter_class_boundary () =
  let g = Topo_gen.pipeline ~stages:4 ~cap:2 in
  let f = Fusion.fuse ~filter_class:(fun v -> if v < 2 then 0 else 1) g in
  check_members "cut at the behaviour change" [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ] f

let test_pin_boundary () =
  let g = Topo_gen.pipeline ~stages:4 ~cap:2 in
  let f = Fusion.fuse ~pin:(fun v -> v = 2) g in
  check_members "pinned node isolated" [ [ 0; 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] f

let test_fused_thresholds_rejected_on_original () =
  let g = Topo_gen.pipeline ~stages:8 ~cap:2 in
  match Compiler.compile ~options:{ Compiler.Options.default with fuse = true } Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok { Compiler.fused = None; _ } -> Alcotest.fail "no fusion attached"
  | Ok { Compiler.fused = Some { fusion; fused_intervals }; _ } ->
    let fused_table =
      Compiler.send_thresholds fusion.Fusion.graph fused_intervals
    in
    let kernels = Filters.for_graph g (fun _ outs -> Filters.passthrough outs) in
    let rejected =
      match
        Engine.run ~graph:g ~kernels ~inputs:1
          ~avoidance:(Engine.Non_propagation fused_table) ()
      with
      | _ -> false
      | exception Invalid_argument _ -> true
    in
    Alcotest.(check bool)
      "fused table fingerprint rejected on the original graph" true rejected

(* A member kernel naming an edge its node does not own — another
   member's, or one outside the original graph — is refused with the
   original node and edge, whichever member of the chain it is. *)
let test_member_edge_validation () =
  let g = Topo_gen.pipeline ~stages:8 ~cap:2 in
  let fusion = Fusion.fuse g in
  let run bad_node bad_edge =
    let kernels v =
      if v = bad_node then fun ~seq:_ ~got:_ -> [ bad_edge ]
      else Filters.for_graph g (fun _ outs -> Filters.passthrough outs) v
    in
    let fw = Fused.make fusion kernels in
    ignore
      (Engine.run ~graph:fusion.graph ~kernels:(Fused.kernels fw) ~inputs:2
         ~avoidance:Engine.No_avoidance ())
  in
  List.iter
    (fun (node, edge) ->
      Alcotest.check_raises
        (Printf.sprintf "node %d returning edge %d" node edge)
        (Invalid_argument
           (Printf.sprintf "Fused: kernel of node %d returned edge %d" node
              edge))
        (fun () -> run node edge))
    [ (3, 0); (3, 99); (3, -1); (0, 7); (7, 6) ]

(* ----- structural properties ----- *)

let prop_spine_is_bridges =
  Tutil.qtest ~count:300 "SP series spine = bridges" Tutil.seed_gen
    (fun seed ->
      let g = Tutil.random_sp_of_seed ~max_edges:24 seed in
      match Sp_recognize.recognize g with
      | Error _ -> false
      | Ok tree ->
        let spine = Array.make (Graph.num_edges g) false in
        List.iter
          (fun (e : Graph.edge) -> spine.(e.id) <- true)
          (Sp_tree.series_spine tree);
        spine = Articulation.bridges g)

let families =
  [
    ("sp", fun seed -> Tutil.random_sp_of_seed ~max_edges:24 seed);
    ("ladder", fun seed -> Tutil.random_ladder_of_seed ~max_rungs:6 seed);
    ("cs4", fun seed -> Tutil.random_cs4_of_seed seed);
  ]

let graph_of_family seed =
  let _, f = List.nth families (seed mod 3) in
  f (seed / 3)

let prop_partition_well_formed =
  Tutil.qtest ~count:300 "partition is a well-formed chain decomposition"
    Tutil.seed_gen (fun seed ->
      let g = graph_of_family seed in
      let f = Fusion.fuse g in
      let fg = f.Fusion.graph in
      let bridge = Articulation.bridges g in
      (* members partition the nodes, in chains connected by internal
         sole-in/sole-out bridge edges *)
      let seen = Array.make (Graph.num_nodes g) 0 in
      let chains_ok = ref true in
      Array.iteri
        (fun gid mem ->
          Array.iteri
            (fun i v ->
              seen.(v) <- seen.(v) + 1;
              if f.Fusion.group_of.(v) <> gid then chains_ok := false;
              if i < Array.length mem - 1 then begin
                let next = mem.(i + 1) in
                let link =
                  List.exists
                    (fun (e : Graph.edge) ->
                      e.src = v && e.dst = next && f.Fusion.edge_of.(e.id) = -1
                      && bridge.(e.id)
                      && Graph.out_degree g v = 1
                      && Graph.in_degree g next = 1
                      && Graph.out_degree g next > 0)
                    (Graph.edges g)
                in
                if not link then chains_ok := false
              end)
            mem)
        f.Fusion.members;
      let edges_ok =
        List.for_all
          (fun (e : Graph.edge) ->
            let fe = f.Fusion.edge_of.(e.id) in
            fe = -1
            || (f.Fusion.orig_edge.(fe) = e.id
               && (Graph.edge fg fe).src = f.Fusion.group_of.(e.src)
               && (Graph.edge fg fe).dst = f.Fusion.group_of.(e.dst)
               && (Graph.edge fg fe).cap = e.cap))
          (Graph.edges g)
      in
      !chains_ok
      && Array.for_all (fun c -> c = 1) seen
      && edges_ok && Topo.is_dag fg && Topo.connected fg
      && Graph.num_edges g - Graph.num_edges fg
         = Graph.num_nodes g - Graph.num_nodes fg)

(* A fused compile takes its bridges from the classification on the
   CS4 route and searches for them itself on the others; either way the
   partition is [Fusion.fuse]'s. Every classification family, CS4 or
   not, under the exact backend and under the LP. *)
let prop_compile_fusion_is_fuse (name, family) =
  Tutil.qtest ~count:100
    (Printf.sprintf "compiled fusion = Fusion.fuse (%s)" name)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      let filter_class v = v / 3 mod 2 in
      List.for_all
        (fun (backend, filter_class) ->
          let options =
            { Compiler.Options.default with fuse = true; backend; filter_class }
          in
          match Compiler.compile ~options Compiler.Non_propagation g with
          | Ok { Compiler.fused = Some { fusion; _ }; _ } ->
            fusion = Fusion.fuse ?filter_class g
          | Ok _ -> false
          | Error _ -> QCheck.assume_fail ())
        [ (Compiler.Exact, None); (Compiler.Lp, None);
          (Compiler.Exact, Some filter_class) ])

let algorithm_of seed =
  match seed mod 3 with
  | 0 -> Compiler.Propagation
  | 1 -> Compiler.Non_propagation
  | _ -> Compiler.Relay_propagation

let prop_derived_equals_recompiled =
  Tutil.qtest ~count:300 "derived fused intervals = recompiled on fused graph"
    Tutil.seed_gen (fun seed ->
      let g = graph_of_family seed in
      let algorithm = algorithm_of (seed / 7) in
      match Compiler.compile ~options:{ Compiler.Options.default with fuse = true } algorithm g with
      | Error _ -> false
      | Ok { Compiler.fused = None; _ } -> false
      | Ok { Compiler.fused = Some { fusion; fused_intervals }; _ } -> (
        match Compiler.compile algorithm fusion.Fusion.graph with
        | Error _ -> false
        | Ok p ->
          Array.length fused_intervals = Array.length p.Compiler.intervals
          && Array.for_all2 Interval.equal fused_intervals p.Compiler.intervals))

(* Every compile entry point honours [fuse]: the cache-backed compile
   and an incremental recompile attach the very partition and fused
   table a plain compile of the same graph attaches. *)
let prop_fuse_on_every_entry_point =
  Tutil.qtest ~count:300 "compile_cached and recompile attach compile's fusion"
    Tutil.seed_gen (fun seed ->
      let g = graph_of_family seed in
      let algorithm = algorithm_of (seed / 7) in
      let options = { Compiler.Options.default with fuse = true } in
      let fused_of what = function
        | Ok { Compiler.fused = Some f; _ } -> f
        | Ok { Compiler.fused = None; _ } ->
          Alcotest.failf "%s attached no fusion" what
        | Error e -> Alcotest.failf "%s: %s" what (Compiler.error_to_string e)
      in
      let same what (a : Compiler.fused) (b : Compiler.fused) =
        Alcotest.(check (array (array int)))
          (what ^ ": members") a.fusion.Fusion.members b.fusion.Fusion.members;
        Alcotest.(check (array int))
          (what ^ ": edge map") a.fusion.Fusion.edge_of b.fusion.Fusion.edge_of;
        Tutil.check_intervals (what ^ ": fused table") a.fused_intervals
          b.fused_intervals
      in
      let module Edit = Fstream_graph.Edit in
      let cache = Compiler.cache_create () in
      let cached = Compiler.compile_cached ~options cache algorithm in
      let recompiled = Compiler.recompile ~options cache algorithm in
      same "compile_cached"
        (fused_of "compile" (Compiler.compile ~options algorithm g))
        (fused_of "compile_cached" (Result.map fst (cached g)));
      let cap = (Graph.edge g 0).cap + 1 in
      match Edit.apply g [ Edit.Resize { edge = 0; cap } ] with
      | Error e -> Alcotest.fail e
      | Ok delta ->
        same "recompile"
          (fused_of "compile" (Compiler.compile ~options algorithm delta.graph))
          (fused_of "recompile" (Result.map fst (recompiled delta)));
        true)

(* ----- differential: fused = unfused ----- *)

let domains_of seed = match seed / 5 mod 3 with 0 -> 1 | 1 -> 2 | _ -> 4

(* node-deterministic kernels keyed by *original* node ids, so fused
   and unfused runs make identical filtering decisions (cf.
   test_parallel.ml's mixed_kernels) *)
let mixed_kernels g seed () =
  Filters.for_graph g (fun v outs ->
      match v mod 3 with
      | 0 -> Filters.bernoulli (Random.State.make [| seed; v |]) ~keep:0.7 outs
      | 1 -> Filters.periodic ~keep_every:(2 + (seed mod 3)) outs
      | _ -> Filters.passthrough outs)

(* paper-pattern filtering: the regime where Propagation is sound, so
   completion itself is schedule- and fusion-independent *)
let paper_pattern_kernels g seed () =
  Filters.for_graph g (fun v outs ->
      if Graph.in_degree g v = 0 || Graph.out_degree g v = 1 then
        Filters.bernoulli (Random.State.make [| seed; v |]) ~keep:0.6 outs
      else Filters.passthrough outs)

type mode = M_none | M_nonprop | M_prop

let differential_case g seed mode =
  let fusion = Fusion.fuse g in
  let fg = fusion.Fusion.graph in
  let kernels =
    match mode with
    | M_prop -> paper_pattern_kernels g seed
    | M_none | M_nonprop -> mixed_kernels g seed
  in
  let setup =
    match mode with
    | M_none -> Some (Engine.No_avoidance, Engine.No_avoidance)
    | M_nonprop -> (
      match Compiler.compile Compiler.Non_propagation g with
      | Error _ -> None
      | Ok p ->
        let fused_intervals = Fusion.derive_intervals fusion p.intervals in
        Some
          ( Engine.Non_propagation (Compiler.send_thresholds g p.intervals),
            Engine.Non_propagation
              (Compiler.send_thresholds fg fused_intervals) ))
    | M_prop -> (
      match Compiler.compile Compiler.Propagation g with
      | Error _ -> None
      | Ok p ->
        let fused_intervals = Fusion.derive_intervals fusion p.intervals in
        Some
          ( Engine.Propagation (Compiler.propagation_thresholds g p.intervals),
            Engine.Propagation
              (Compiler.propagation_thresholds fg fused_intervals) ))
  in
  match setup with
  | None -> false
  | Some (avoidance, fused_avoidance) ->
    let inputs = 25 in
    let c = Metrics.collector ~graph:g ~inputs () in
    let plain =
      Engine.run ~sink:(Metrics.sink c) ~graph:g ~kernels:(kernels ()) ~inputs
        ~avoidance ()
    in
    let m = Metrics.result c in
    let fw = Fused.make fusion (kernels ()) in
    let fused =
      Engine.run ~graph:fg ~kernels:(Fused.kernels fw) ~inputs
        ~avoidance:fused_avoidance ()
    in
    let pw = Fused.make fusion (kernels ()) in
    let pool =
      P.run ~domains:(domains_of seed) ~graph:fg ~kernels:(Fused.kernels pw)
        ~inputs ~avoidance:fused_avoidance ()
    in
    let boundary_data =
      Array.fold_left
        (fun acc oe -> acc + m.Metrics.edges.(oe).Metrics.data)
        0 fusion.Fusion.orig_edge
    in
    let completed = plain.Report.outcome = Report.Completed in
    (* avoidance modes run safe computed tables: the run must complete *)
    ((mode = M_none) || completed)
    && fused.Report.outcome = plain.Report.outcome
    && fused.Report.sink_data = plain.Report.sink_data
    (* traffic and firing counts transfer only on completed runs: at a
       wedge the unfused chain heads can run ahead by the interior
       channels' capacity — buffering fusion deliberately removes — so
       wedge-time counts are not preserved, only wedge reachability,
       sink deliveries and the completed-run counts (the identity case
       below is the exception: nothing collapsed, so even the wedge
       state must coincide) *)
    && ((not completed) || fused.Report.data_messages = boundary_data)
    (* every completed firing runs a kernel under no avoidance, so
       per-original-node firing counts must survive fusion exactly *)
    && (mode <> M_none || (not completed) || Fused.fired fw = m.Metrics.fired)
    (* identity partitions run the very same graph: the whole report
       transfers, dummy accounting and wedge traffic included *)
    && (not (Fusion.is_identity fusion)
       || fused.Report.data_messages = plain.Report.data_messages
          && fused.Report.dummy_messages = plain.Report.dummy_messages
          && fused.Report.per_edge_dummies = plain.Report.per_edge_dummies
          && fused.Report.dropped_dummies = plain.Report.dropped_dummies)
    (* pool leg: Kahn determinism extends to compound kernels *)
    && pool.Report.outcome = fused.Report.outcome
    && pool.Report.sink_data = fused.Report.sink_data
    && pool.Report.data_messages = fused.Report.data_messages

let mode_of seed =
  match seed mod 3 with 0 -> M_none | 1 -> M_nonprop | _ -> M_prop

let differential_suite =
  List.map
    (fun (name, family) ->
      Tutil.qtest ~count:300
        (Printf.sprintf "fused = unfused on random %s (all modes, pool)" name)
        Tutil.seed_gen
        (fun seed -> differential_case (family seed) seed (mode_of seed)))
    families

(* ----- obs attribution and the replay oracle on fused runs ----- *)

let test_subnode_attribution () =
  let g = Topo_gen.pipeline ~stages:6 ~cap:2 in
  let kernels =
    Filters.for_graph g (fun v outs ->
        if v = 2 then Filters.periodic ~keep_every:2 outs
        else Filters.passthrough outs)
  in
  match Compiler.compile ~options:{ Compiler.Options.default with fuse = true } Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok { Compiler.fused = None; _ } -> Alcotest.fail "no fusion attached"
  | Ok { Compiler.fused = Some { fusion; fused_intervals }; _ } ->
    let fg = fusion.Fusion.graph in
    let ring = Ring.create ~capacity:8192 () in
    let fw = Fused.make ~sink:(Ring.sink ring) fusion kernels in
    let report =
      Engine.run ~sink:(Ring.sink ring) ~graph:fg ~kernels:(Fused.kernels fw)
        ~inputs:20
        ~avoidance:
          (Engine.Non_propagation
             (Compiler.send_thresholds fg fused_intervals))
        ()
    in
    Alcotest.(check bool) "completed" true (report.outcome = Report.Completed);
    Alcotest.(check int) "ring kept the whole log" 0 (Ring.dropped ring);
    (* Subnode_fired events reconstruct the per-original-node counters *)
    let by_event = Array.make (Graph.num_nodes g) 0 in
    Ring.iter ring (fun e ->
        match e with
        | Event.Subnode_fired { sub; _ } -> by_event.(sub) <- by_event.(sub) + 1
        | _ -> ());
    Alcotest.(check (array int)) "events = counters" (Fused.fired fw) by_event;
    (* the replay oracle still balances on a fused log: Subnode_fired is
       attribution-only and must not disturb the conservation laws *)
    let replayed =
      Report.of_events ~graph:fg
        (List.filter
           (fun e ->
             match e with Event.Subnode_fired _ -> false | _ -> true)
           (Ring.contents ring))
    in
    let replayed_with_subnodes =
      Report.of_events ~graph:fg (Ring.contents ring)
    in
    List.iter
      (fun (name, r) ->
        Alcotest.(check bool)
          (name ^ ": outcome") true
          (r.Report.outcome = report.outcome);
        Alcotest.(check int) (name ^ ": data") report.data_messages
          r.Report.data_messages;
        Alcotest.(check int) (name ^ ": dummies") report.dummy_messages
          r.Report.dummy_messages;
        Alcotest.(check int) (name ^ ": sink") report.sink_data
          r.Report.sink_data)
      [ ("filtered", replayed); ("raw", replayed_with_subnodes) ]

(* ----- model-checked interval preservation ----- *)

let tiny_graph_of_seed seed =
  let rng = Tutil.rng_of seed in
  Topo_gen.random_cs4 rng
    ~blocks:1
    ~block_edges:(2 + Random.State.int rng 3)
    ~max_cap:2

let verdict = function
  | Verify.Safe _ -> `Safe
  | Verify.Deadlocks _ -> `Deadlocks
  | Verify.Out_of_budget _ -> `Budget

let check_both graph_pair avoidance_pair =
  let g, fg = graph_pair and av, fav = avoidance_pair in
  let r = Verify.check ~max_states:150_000 ~graph:g ~avoidance:av ~inputs:3 () in
  let rf =
    Verify.check ~max_states:150_000 ~graph:fg ~avoidance:fav ~inputs:3 ()
  in
  match (verdict r, verdict rf) with
  | `Budget, _ | _, `Budget -> true (* inconclusive: don't let CI flake *)
  | a, b -> a = b

let prop_verify_no_avoidance_iff =
  Tutil.qtest ~count:300
    "wedge reachable on fused graph iff on original (no avoidance)"
    Tutil.seed_gen (fun seed ->
      let g = tiny_graph_of_seed seed in
      let f = Fusion.fuse g in
      check_both (g, f.Fusion.graph) (Engine.No_avoidance, Engine.No_avoidance))

let prop_verify_plan_tables_iff =
  (* sound tables must stay Safe on both sides; the paper-literal
     Propagation tables are genuinely unsafe on some instances, so this
     also exercises the Deadlocks = Deadlocks direction *)
  Tutil.qtest ~count:300
    "verify verdict preserved for computed tables (all algorithms)"
    Tutil.seed_gen (fun seed ->
      let g = tiny_graph_of_seed seed in
      let algorithm = algorithm_of seed in
      match Compiler.compile ~options:{ Compiler.Options.default with fuse = true } algorithm g with
      | Error _ -> false
      | Ok { Compiler.fused = None; _ } -> false
      | Ok ({ Compiler.fused = Some { fusion; fused_intervals }; _ } as p) ->
        let fg = fusion.Fusion.graph in
        let pair =
          match algorithm with
          | Compiler.Propagation ->
            ( Engine.Propagation
                (Compiler.propagation_thresholds g p.Compiler.intervals),
              Engine.Propagation
                (Compiler.propagation_thresholds fg fused_intervals) )
          | _ ->
            ( Engine.Non_propagation
                (Compiler.send_thresholds g p.Compiler.intervals),
              Engine.Non_propagation
                (Compiler.send_thresholds fg fused_intervals) )
        in
        check_both (g, fg) pair)

let weaken intervals =
  Array.map
    (fun iv ->
      match Interval.threshold iv with None -> None | Some k -> Some (3 * k))
    intervals

let prop_verify_weakened_tables_iff =
  (* tripled thresholds are past the safe budget on cycle-bearing
     instances: wedges appear, and they must appear on both sides *)
  Tutil.qtest ~count:300 "verify verdict preserved for weakened tables"
    Tutil.seed_gen (fun seed ->
      let g = tiny_graph_of_seed seed in
      match Compiler.compile ~options:{ Compiler.Options.default with fuse = true } Compiler.Non_propagation g with
      | Error _ -> false
      | Ok { Compiler.fused = None; _ } -> false
      | Ok ({ Compiler.fused = Some { fusion; fused_intervals }; _ } as p) ->
        let fg = fusion.Fusion.graph in
        check_both (g, fg)
          ( Engine.Non_propagation
              (Thresholds.of_array g (weaken p.Compiler.intervals)),
            Engine.Non_propagation
              (Thresholds.of_array fg (weaken fused_intervals)) ))

(* deterministic fixture with a real chain feeding a wedgeable diamond:
   both verdicts, both directions *)
let test_verify_chain_diamond_fixture () =
  let g =
    Graph.make ~nodes:7
      [ (0, 1, 2); (1, 2, 1); (2, 3, 1); (2, 4, 2); (3, 5, 1); (4, 5, 2); (5, 6, 1) ]
  in
  let f = Fusion.fuse g in
  check_members "chain into the diamond fuses"
    [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ]; [ 5 ]; [ 6 ] ]
    f;
  let fg = f.Fusion.graph in
  let wedge_none g' =
    verdict (Verify.check ~graph:g' ~avoidance:Engine.No_avoidance ~inputs:4 ())
  in
  Alcotest.(check bool) "unfused wedges under no avoidance" true
    (wedge_none g = `Deadlocks);
  Alcotest.(check bool) "fused wedges under no avoidance" true
    (wedge_none fg = `Deadlocks);
  match Compiler.compile ~options:{ Compiler.Options.default with fuse = true } Compiler.Non_propagation g with
  | Error e -> Alcotest.fail (Compiler.error_to_string e)
  | Ok { Compiler.fused = None; _ } -> Alcotest.fail "no fusion attached"
  | Ok ({ Compiler.fused = Some { fusion = _; fused_intervals }; _ } as p) ->
    let safe g' av =
      verdict (Verify.check ~graph:g' ~avoidance:av ~inputs:4 ())
    in
    Alcotest.(check bool) "unfused safe under the plan" true
      (safe g
         (Engine.Non_propagation
            (Compiler.send_thresholds g p.Compiler.intervals))
      = `Safe);
    Alcotest.(check bool) "fused safe under the derived plan" true
      (safe fg
         (Engine.Non_propagation (Compiler.send_thresholds fg fused_intervals))
      = `Safe)

let suite =
  [
    Alcotest.test_case "pipeline fuses to chain + sink" `Quick
      test_pipeline_chain;
    Alcotest.test_case "boundary: splitter" `Quick test_splitter_boundary;
    Alcotest.test_case "boundary: merger" `Quick test_merger_boundary;
    Alcotest.test_case "boundary: multi-use (parallel edges)" `Quick
      test_multiuse_boundary;
    Alcotest.test_case "boundary: cycle edges" `Quick test_cycle_boundary;
    Alcotest.test_case "boundary: filter-class change" `Quick
      test_filter_class_boundary;
    Alcotest.test_case "boundary: pinned node" `Quick test_pin_boundary;
    Alcotest.test_case "fused thresholds rejected on original graph" `Quick
      test_fused_thresholds_rejected_on_original;
    Alcotest.test_case "member kernels validated on original edges" `Quick
      test_member_edge_validation;
    Alcotest.test_case "subnode attribution and replay oracle" `Quick
      test_subnode_attribution;
    Alcotest.test_case "verify fixture: chain into wedgeable diamond" `Quick
      test_verify_chain_diamond_fixture;
    prop_spine_is_bridges;
    prop_partition_well_formed;
    prop_derived_equals_recompiled;
    prop_fuse_on_every_entry_point;
  ]
  @ List.map prop_compile_fusion_is_fuse Test_ladder.classify_families
  @ differential_suite
  @ [
      prop_verify_no_avoidance_iff;
      prop_verify_plan_tables_iff;
      prop_verify_weakened_tables_iff;
    ]
