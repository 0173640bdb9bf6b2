(* The lint engine: every FS* rule has a positive and a negative
   fixture, and the severity contract is property-tested — a report
   with zero Error findings means the configured plan is safe, checked
   against the exhaustive model checker in all three sound wrapper
   configurations (cf. test_soundness.ml). *)

open Fstream_graph
open Fstream_core
module Lint = Fstream_analysis.Lint
module Topo_gen = Fstream_workloads.Topo_gen
module Repair = Fstream_repair.Repair
module App_spec = Fstream_workloads.App_spec
module Verify = Fstream_verify.Verify
module Engine = Fstream_runtime.Engine

let has code (r : Lint.report) =
  List.exists (fun (d : Lint.diagnostic) -> d.Lint.code = code) r.diagnostics

let find code (r : Lint.report) =
  List.find (fun (d : Lint.diagnostic) -> d.Lint.code = code) r.diagnostics

let errors r = Lint.count r Lint.Error

let check_fires name code report =
  Alcotest.(check bool) (name ^ ": " ^ code ^ " fires") true (has code report)

let check_silent name code report =
  Alcotest.(check bool)
    (name ^ ": " ^ code ^ " silent")
    false (has code report)

(* ------------------------------------------------------------------ *)
(* registry *)

let test_registry () =
  Alcotest.(check bool) "at least ten rules" true (List.length Lint.rules >= 10);
  let ids = List.map (fun (r : Lint.rule) -> r.Lint.id) Lint.rules in
  Alcotest.(check int)
    "rule ids are unique"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " resolvable") true (Lint.rule id <> None))
    ids

(* ------------------------------------------------------------------ *)
(* FS1xx: structure *)

let test_fs101 () =
  let cyclic = Graph.make ~nodes:2 [ (0, 1, 1); (1, 0, 1) ] in
  let r = Lint.run cyclic in
  check_fires "cyclic" "FS101" r;
  let d = find "FS101" r in
  Alcotest.(check bool) "has a cycle witness" true (d.Lint.witness <> []);
  check_silent "fig2" "FS101" (Lint.run (Topo_gen.fig2_triangle ~cap:2))

let test_fs102 () =
  let split = Graph.make ~nodes:4 [ (0, 1, 1); (2, 3, 1) ] in
  check_fires "disconnected" "FS102" (Lint.run split);
  check_silent "fig2" "FS102" (Lint.run (Topo_gen.fig2_triangle ~cap:2))

let test_fs103 () =
  let twosrc = Graph.make ~nodes:3 [ (0, 2, 1); (1, 2, 1) ] in
  check_fires "two sources" "FS103" (Lint.run twosrc);
  check_silent "pipeline" "FS103" (Lint.run (Topo_gen.pipeline ~stages:4 ~cap:2))

let test_fs104 () =
  (* nodes 1,2 form a directed cycle unreachable from the source *)
  let g = Graph.make ~nodes:4 [ (0, 3, 1); (1, 2, 1); (2, 1, 1); (1, 3, 1) ] in
  let r = Lint.run g in
  check_fires "unreachable cycle" "FS101" r;
  check_fires "unreachable cycle" "FS104" r;
  check_silent "fig2" "FS104" (Lint.run (Topo_gen.fig2_triangle ~cap:2))

(* FS102's and FS104's findings in full: location, message and witness
   of every finding, on graphs with several components (the smallest
   first among equals, then one past the eight listed nodes), with
   unreachable nodes, with dead ends, and with no source or sink. *)
let test_fs102_fs104_pinned () =
  let pinned code g =
    List.filter_map
      (fun (d : Lint.diagnostic) ->
        if d.Lint.code <> code then None
        else
          let nodes l = String.concat "," (List.map string_of_int l) in
          let loc =
            match d.Lint.location with
            | Lint.Nodes l -> "nodes " ^ nodes l
            | _ -> "other"
          in
          Some (String.concat " | " ((loc :: d.Lint.message :: d.Lint.witness))))
      (Lint.run g).Lint.diagnostics
  in
  let check name code g expected =
    Alcotest.(check (list string)) name expected (pinned code g)
  in
  let disconnected =
    "the topology is not connected: isolated parts cannot exchange \
     sequence numbers and the interval algorithms reject it"
  in
  check "three components" "FS102"
    (Graph.make ~nodes:8 [ (0, 1, 1); (1, 2, 1); (3, 4, 1); (5, 6, 1); (6, 7, 1) ])
    [ "nodes 3,4 | " ^ disconnected ^ " | 3 components; smallest is {3, 4}" ];
  check "ten-node halves" "FS102"
    (Graph.make ~nodes:20
       (List.init 9 (fun i -> (i, i + 1, 1))
       @ List.init 9 (fun i -> (i + 10, i + 11, 1))))
    [
      "nodes 0,1,2,3,4,5,6,7,8,9 | " ^ disconnected
      ^ " | 2 components; smallest is {0, 1, 2, 3, 4, 5, 6, 7, ... (10 in all)}";
    ];
  check "unreachable" "FS104"
    (Graph.make ~nodes:4 [ (0, 3, 1); (1, 2, 1); (2, 1, 1); (1, 3, 1) ])
    [
      "nodes 1,2 | node(s) 1, 2 are unreachable from every source: they can \
       never fire";
    ];
  check "dead end" "FS104"
    (Graph.make ~nodes:5
       [ (0, 1, 1); (1, 4, 1); (1, 2, 1); (2, 3, 1); (3, 2, 1) ])
    [ "nodes 2,3 | node(s) 2, 3 cannot reach any sink: they can never drain" ];
  check "no source or sink" "FS104"
    (Graph.make ~nodes:3 [ (0, 1, 1); (1, 2, 1); (2, 0, 1) ])
    [
      "nodes 0,1,2 | node(s) 0, 1, 2 are unreachable from every source: \
       they can never fire";
      "nodes 0,1,2 | node(s) 0, 1, 2 cannot reach any sink: they can never \
       drain";
    ]

(* ------------------------------------------------------------------ *)
(* FS2xx: cycle structure *)

let test_fs201 () =
  let r = Lint.run (Topo_gen.fig4_butterfly ~cap:2) in
  check_fires "butterfly" "FS201" r;
  let d = find "FS201" r in
  Alcotest.(check bool) "witness cycle shown" true (d.Lint.witness <> []);
  Alcotest.(check bool)
    "carries a reroute fixit" true
    (match Lint.fixit d with Some (Lint.Reroute _) -> true | _ -> false);
  check_silent "fig5 ladder" "FS201" (Lint.run (Topo_gen.fig5_ladder ~cap:2))

(* FS201's reroute is computed on its first read, which may happen on
   another domain than the lint: there, here, and once more after both,
   it is the repair the eager rule attached. *)
let test_fs201_fixit_on_read () =
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let d = find "FS201" (Lint.run g) in
  let there = Domain.spawn (fun () -> Lint.fixit d) in
  let here = Lint.fixit d in
  let expected =
    match Repair.repair ~max_cycles:Lint.default_config.Lint.max_cycles g with
    | Ok r when r.Repair.reroutes <> [] -> Some (Lint.Reroute r)
    | _ -> None
  in
  Alcotest.(check bool) "a reroute" true (expected <> None);
  Alcotest.(check bool) "same value on both domains and after" true
    (here = expected && Domain.join there = expected && Lint.fixit d = expected)

(* The reroute fixit's repair searches for its witness under lint's
   budget, not the repair command's default: with no budget at all the
   finding stays (the classification decides it) but carries neither a
   witness nor a fixit. *)
let test_fs201_fixit_budget () =
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let d =
    find "FS201"
      (Lint.run ~config:{ Lint.default_config with Lint.max_cycles = 0 } g)
  in
  Alcotest.(check bool) "no witness within budget 0" true (d.Lint.witness = []);
  Alcotest.(check bool) "no fixit within budget 0" true (Lint.fixit d = None);
  match Repair.repair g with
  | Ok r ->
    Alcotest.(check bool) "repair's own default still reroutes" true
      (r.Repair.reroutes <> [])
  | Error e -> Alcotest.failf "repair failed: %s" e

let test_fs202 () =
  check_fires "butterfly" "FS202" (Lint.run (Topo_gen.fig4_butterfly ~cap:2));
  check_silent "fig2" "FS202" (Lint.run (Topo_gen.fig2_triangle ~cap:2))

let test_fs203 () =
  check_fires "fig4-left ladder" "FS203" (Lint.run (Topo_gen.fig4_left ~cap:2));
  check_silent "fig2 is SP" "FS203" (Lint.run (Topo_gen.fig2_triangle ~cap:2))

(* ------------------------------------------------------------------ *)
(* FS3xx: capacities, intervals, thresholds *)

(* a 4-hop run against a 1-cap chord: interval 1/4 on the long run *)
let undersized () =
  Graph.make ~nodes:5
    [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (3, 4, 1); (0, 4, 1) ]

let test_fs301 () =
  let r = Lint.run (undersized ()) in
  check_fires "1/4 interval" "FS301" r;
  let d = find "FS301" r in
  Alcotest.(check bool)
    "carries a buffer-scaling fixit" true
    (match Lint.fixit d with Some (Lint.Scale_buffers c) -> c >= 4 | _ -> false);
  check_silent "fig2 cap 2" "FS301" (Lint.run (Topo_gen.fig2_triangle ~cap:2))

(* The fixit comes from the audited plan's table when it took the CS4
   route, and must be the factor the cold sizing compile gives. *)
let test_fs301_fixit_from_plan () =
  List.iter
    (fun (name, g) ->
      let expected =
        match
          Sizing.min_uniform_scale g Lint.default_config.algorithm ~target:1
        with
        | Ok c -> c
        | Error e -> Alcotest.fail e
      in
      let plan = Compiler.compile Lint.default_config.algorithm g in
      (match plan with
      | Ok { route = Compiler.Cs4_route _; _ } -> ()
      | _ -> Alcotest.failf "%s: expected a CS4-route plan" name);
      let d = find "FS301" (Lint.run ~plan g) in
      Alcotest.(check bool)
        (name ^ ": fixit = cold sizing") true
        (Lint.fixit d = Some (Lint.Scale_buffers expected)))
    [ ("undersized", undersized ());
      ("wide ladder", Topo_gen.wide_ladder ~rungs:6 ~cap:1) ]

(* FS301's scale is computed on its first read, which may happen on
   another domain than the lint: there, here, and once more after both,
   it is the factor the cold sizing compile gives, and every offender
   carries it. *)
let test_fs301_fixit_on_read () =
  let g = undersized () in
  let r = Lint.run g in
  let ds =
    List.filter (fun (d : Lint.diagnostic) -> d.Lint.code = "FS301")
      r.Lint.diagnostics
  in
  let d = List.hd ds in
  let there = Domain.spawn (fun () -> Lint.fixit d) in
  let here = Lint.fixit d in
  let expected =
    match
      Sizing.min_uniform_scale g Lint.default_config.algorithm ~target:1
    with
    | Ok c -> Some (Lint.Scale_buffers c)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "more than one offender" true (List.length ds > 1);
  Alcotest.(check bool) "same value on both domains and after" true
    (here = expected && Domain.join there = expected);
  Alcotest.(check bool) "every offender carries it" true
    (List.for_all (fun d -> Lint.fixit d = expected) ds)

let test_fs301_fix_roundtrip () =
  let g = undersized () in
  let r = Lint.run g in
  match Lint.apply_fixes g r with
  | Error e -> Alcotest.fail e
  | Ok (fixed, _) ->
    check_silent "after scaling" "FS301" (Lint.run fixed)

let test_fs302 () =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let too_late = Thresholds.of_array g [| Some 10; Some 10; Some 10 |] in
  let cfg t = { Lint.default_config with Lint.audit_thresholds = Some t } in
  check_fires "late thresholds" "FS302" (Lint.run ~config:(cfg too_late) g);
  (* a table fingerprinted for another topology *)
  let other = Topo_gen.pipeline ~stages:2 ~cap:2 in
  let foreign = Thresholds.of_array other [| Some 1; Some 1 |] in
  check_fires "foreign table" "FS302" (Lint.run ~config:(cfg foreign) g);
  (* the compiler's own table audits clean *)
  (match Compiler.compile Compiler.Non_propagation g with
  | Error _ -> Alcotest.fail "fig2 must plan"
  | Ok p ->
    let good = Compiler.send_thresholds g p.Compiler.intervals in
    check_silent "computed table" "FS302" (Lint.run ~config:(cfg good) g));
  check_silent "no table supplied" "FS302" (Lint.run g)

let prop_config = { Lint.default_config with Lint.algorithm = Compiler.Propagation }

let test_fs303 () =
  let r = Lint.run ~config:prop_config (Topo_gen.erosion_counterexample ()) in
  check_fires "erosion counterexample" "FS303" r;
  Alcotest.(check bool)
    "erosion is an Error" true
    ((find "FS303" r).Lint.severity = Lint.Error);
  check_silent "fig2 under propagation" "FS303"
    (Lint.run ~config:prop_config (Topo_gen.fig2_triangle ~cap:2));
  (* the rule is propagation-specific *)
  check_silent "non-propagation audit" "FS303"
    (Lint.run (Topo_gen.erosion_counterexample ()))

let test_fs304 () =
  let uneven = Graph.make ~nodes:2 [ (0, 1, 1); (0, 1, 3) ] in
  check_fires "asymmetric pair" "FS304" (Lint.run uneven);
  let even = Graph.make ~nodes:2 [ (0, 1, 2); (0, 1, 2) ] in
  check_silent "symmetric pair" "FS304" (Lint.run even)

(* FS305 is armed only under [backend = Lp]: the run-sum audit of a
   supplied table, with {!Lp.audit}'s witness (the same fixture
   test_lp.ml checks at the Lp.audit level). FS305 has no CLI path, so
   its text is pinned here. *)
let test_fs305 () =
  let g = Topo_gen.fig2_triangle ~cap:3 in
  let overloaded = Thresholds.of_array g [| Some 4; Some 4; Some 1 |] in
  let cfg backend t =
    { Lint.default_config with Lint.backend; audit_thresholds = Some t }
  in
  let r = Lint.run ~config:(cfg Compiler.Lp overloaded) g in
  check_fires "overloaded table under lp" "FS305" r;
  let d = find "FS305" r in
  Alcotest.(check bool)
    "FS305 is a Warning, not an Error" true
    (d.Lint.severity = Lint.Warning);
  Alcotest.(check string) "message"
    "the supplied thresholds break the LP run-sum discipline at branch node \
     0: a run out of it may legally lag 6 sequence numbers while its \
     smallest out-buffer frees only 2"
    d.Lint.message;
  Alcotest.(check (list string)) "witness"
    [ "branch node 0: worst chain demand 6 > out-buffer slack 2";
      "demand chain: e0 (0->1) -> e1 (1->2)" ]
    d.Lint.witness;
  check_silent "same table, default backend" "FS305"
    (Lint.run ~config:(cfg Compiler.Exact overloaded) g);
  (* the LP backend's own table audits clean *)
  (match
     Compiler.compile Compiler.Non_propagation
       ~options:{ Compiler.Options.default with backend = Compiler.Lp }
       g
   with
  | Error _ -> Alcotest.fail "fig2 must compile under lp"
  | Ok p ->
    let own = Compiler.send_thresholds g p.Compiler.intervals in
    check_silent "LP's own table" "FS305"
      (Lint.run ~config:(cfg Compiler.Lp own) g));
  check_silent "no table supplied" "FS305"
    (Lint.run
       ~config:{ Lint.default_config with Lint.backend = Compiler.Lp }
       g)

(* Two overloaded branch nodes in one component: node 2 is upstream
   and owns the lowest edge id, but the witness is the branch of lowest
   node id, node 1, and its chain takes the lowest-id out-edge that
   attains the demand at each step. *)
let test_fs305_witness_rule () =
  let g =
    Graph.make ~nodes:4
      [ (2, 1, 2); (2, 3, 2); (1, 3, 2); (1, 0, 2); (3, 0, 2) ]
  in
  let t = Thresholds.of_array g (Array.make 5 (Some 3)) in
  let r =
    Lint.run
      ~config:
        { Lint.default_config with
          Lint.backend = Compiler.Lp; audit_thresholds = Some t }
      g
  in
  let d = find "FS305" r in
  Alcotest.(check bool) "at node 1" true (d.Lint.location = Lint.Node 1);
  Alcotest.(check (list string)) "witness"
    [ "branch node 1: worst chain demand 4 > out-buffer slack 1";
      "demand chain: e2 (1->3) -> e4 (3->0)" ]
    d.Lint.witness

(* under [backend = Lp] a non-CS4 topology is first-class, so FS201
   downgrades to Warning and the report carries no Errors *)
let test_fs201_lp_downgrade () =
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let r =
    Lint.run ~config:{ Lint.default_config with Lint.backend = Compiler.Lp } g
  in
  check_fires "butterfly still reported" "FS201" r;
  Alcotest.(check bool)
    "downgraded to Warning" true
    ((find "FS201" r).Lint.severity = Lint.Warning);
  Alcotest.(check int) "no Errors under lp" 0 (errors r);
  (* Exact and Auto keep the Error verdict *)
  Alcotest.(check bool)
    "Error under exact" true
    ((find "FS201" (Lint.run g)).Lint.severity = Lint.Error);
  Alcotest.(check bool)
    "Error under auto" true
    ((find "FS201"
        (Lint.run
           ~config:{ Lint.default_config with Lint.backend = Compiler.Auto }
           g))
       .Lint.severity
    = Lint.Error)

(* ------------------------------------------------------------------ *)
(* FS4xx: application specs *)

let diamond () =
  Graph.make ~nodes:5 [ (0, 1, 1); (1, 2, 1); (1, 3, 1); (2, 4, 1); (3, 4, 1) ]

let with_spec ?(algorithm = Compiler.Non_propagation) g behaviors default =
  let spec = { App_spec.graph = g; behaviors; default } in
  Lint.run
    ~config:{ Lint.default_config with Lint.algorithm; Lint.spec = Some spec }
    g

let test_fs401 () =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  check_fires "unknown node" "FS401"
    (with_spec g [ (7, App_spec.Passthrough) ] App_spec.Passthrough);
  check_fires "foreign channel" "FS401"
    (with_spec g [ (0, App_spec.Block 99) ] App_spec.Passthrough);
  check_silent "valid spec" "FS401"
    (with_spec g [ (0, App_spec.Drop) ] App_spec.Passthrough)

let test_fs402 () =
  let g = diamond () in
  check_fires "filter at split" "FS402"
    (with_spec ~algorithm:Compiler.Propagation g
       [ (1, App_spec.Drop) ]
       App_spec.Passthrough);
  check_fires "filtering default reaches a split" "FS402"
    (with_spec ~algorithm:Compiler.Propagation g [] (App_spec.Bernoulli 0.5));
  check_silent "same spec, non-propagation" "FS402"
    (with_spec g [ (1, App_spec.Drop) ] App_spec.Passthrough);
  check_silent "filtering only at source and relays" "FS402"
    (with_spec ~algorithm:Compiler.Propagation g
       [ (0, App_spec.Drop); (2, App_spec.Periodic 3) ]
       App_spec.Passthrough)

let test_fs403 () =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  check_fires "duplicate directives" "FS403"
    (with_spec g
       [ (0, App_spec.Drop); (0, App_spec.Passthrough) ]
       App_spec.Passthrough);
  check_silent "unique directives" "FS403"
    (with_spec g
       [ (0, App_spec.Drop); (1, App_spec.Passthrough) ]
       App_spec.Passthrough)

(* ------------------------------------------------------------------ *)
(* fixits *)

let test_fix_butterfly () =
  let g = Topo_gen.fig4_butterfly ~cap:2 in
  let r = Lint.run g in
  Alcotest.(check bool) "butterfly has errors" true (errors r > 0);
  match Lint.apply_fixes g r with
  | Error e -> Alcotest.fail e
  | Ok (fixed, actions) ->
    Alcotest.(check bool) "actions reported" true (actions <> []);
    Alcotest.(check int) "fixed topology lints clean of errors" 0
      (errors (Lint.run fixed));
    Alcotest.(check bool) "fixed topology is CS4" true
      (Fstream_ladder.Cs4.is_cs4 fixed)

let test_fix_nothing_to_do () =
  let g = Topo_gen.fig2_triangle ~cap:2 in
  let r = Lint.run g in
  Alcotest.(check bool)
    "clean report has no fixits" true
    (match Lint.apply_fixes g r with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* the severity contract: lint-clean implies verify-safe *)

let small_graph_of_seed seed =
  let rng = Tutil.rng_of seed in
  let g0 =
    Topo_gen.random_sp rng
      ~target_edges:(2 + Random.State.int rng 4)
      ~max_cap:2
  in
  if Random.State.bool rng then g0
  else begin
    (* a forward chord usually leaves CS4: exercises the vacuous side *)
    let n = Graph.num_nodes g0 in
    let rank = Topo.rank g0 in
    let edges =
      List.map (fun (e : Graph.edge) -> (e.src, e.dst, e.cap)) (Graph.edges g0)
    in
    let a = Random.State.int rng n and b = Random.State.int rng n in
    let edges =
      if rank.(a) < rank.(b) then edges @ [ (a, b, 1 + Random.State.int rng 2) ]
      else edges
    in
    Graph.make ~nodes:n edges
  end

let no_wedge g avoidance =
  match Verify.check ~max_states:20_000 ~graph:g ~avoidance ~inputs:3 () with
  | Verify.Deadlocks _ -> false
  | Verify.Safe _ | Verify.Out_of_budget _ -> true

let clean (r : Lint.report) = errors r = 0 && r.Lint.incomplete = None

let prop_lint_clean_implies_safe =
  Tutil.qtest ~count:300 "lint-clean implies verify-safe (three modes)"
    Tutil.seed_gen (fun seed ->
      let g = small_graph_of_seed seed in
      let nonprop_ok =
        if not (clean (Lint.run g)) then true
        else
          match Compiler.compile Compiler.Non_propagation g with
          | Error _ -> false (* clean lint promises a plan *)
          | Ok p ->
            let t = Compiler.send_thresholds g p.Compiler.intervals in
            (* absorbing wrapper, and the sound forwarding hybrid *)
            no_wedge g (Engine.Non_propagation t)
            && no_wedge g (Engine.Propagation t)
      in
      let prop_ok =
        if not (clean (Lint.run ~config:prop_config g)) then true
        else
          match Compiler.compile Compiler.Propagation g with
          | Error _ -> false
          | Ok p ->
            no_wedge g
              (Engine.Propagation
                 (Compiler.propagation_thresholds g p.Compiler.intervals))
      in
      nonprop_ok && prop_ok)

(* Sanity for the property above: the erosion counterexample is exactly
   the case where a lint Error (FS303) excludes an unsound table. *)
let test_fs303_guards_the_contract () =
  let g = Topo_gen.erosion_counterexample () in
  let r = Lint.run ~config:prop_config g in
  Alcotest.(check bool) "erosion instance is not lint-clean" false (clean r);
  match Compiler.compile Compiler.Propagation g with
  | Error _ -> Alcotest.fail "erosion instance must plan"
  | Ok p ->
    let t = Compiler.propagation_thresholds g p.Compiler.intervals in
    Alcotest.(check bool)
      "and its paper-literal table really wedges" false
      (match
         Verify.check ~max_states:200_000 ~strategy:`Dfs ~graph:g
           ~avoidance:(Engine.Propagation t) ~inputs:4 ()
       with
      | Verify.Deadlocks _ -> false
      | _ -> true)

(* A second instance of the same hazard with no erosion "split": on a
   multigraph, parallel-edge cycles grant mid-run budgets > 1, and the
   run-sum along the long cycle overshoots its opposing capacity. Found
   by the property above (seed 893); kept as a deterministic fixture. *)
let test_fs303_multigraph_run_sum () =
  let g =
    Graph.make ~nodes:4
      [ (0, 1, 2); (1, 2, 2); (1, 2, 2); (2, 3, 2); (2, 3, 1); (0, 3, 2) ]
  in
  let r = Lint.run ~config:prop_config g in
  check_fires "parallel-edge multigraph" "FS303" r;
  Alcotest.(check bool)
    "and the nonprop audit stays clean" true
    (clean (Lint.run g));
  match Compiler.compile Compiler.Propagation g with
  | Error _ -> Alcotest.fail "multigraph instance must plan"
  | Ok p ->
    let t = Compiler.propagation_thresholds g p.Compiler.intervals in
    Alcotest.(check bool)
      "and its paper-literal table really wedges" false
      (match
         Verify.check ~max_states:200_000 ~graph:g
           ~avoidance:(Engine.Propagation t) ~inputs:3 ()
       with
      | Verify.Deadlocks _ -> false
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* differential: lint = a self-contained reference, FS201/FS202 = eager  *)

module Cs4 = Fstream_ladder.Cs4

(* The rules' context as a self-contained reference builds it: its own
   classification and, unless a plan is given, its own cold compile. The
   FS3xx/FS4xx rules and FS203 run over it unchanged; FS201 and FS202
   are checked against {!eager_fs2} below instead. *)
let reference_ctx ?plan (cfg : Lint.config) g : Lint.ctx =
  let dag = Topo.is_dag g in
  let connected = Topo.connected g in
  let classification =
    match Topo.is_two_terminal g with
    | Some _ when connected -> Some (Cs4.classify g)
    | _ -> None
  in
  let plan =
    if dag && connected then
      Some
        (match plan with
        | Some p -> p
        | None ->
          Compiler.compile
            ~options:
              {
                Compiler.Options.default with
                max_cycles = cfg.max_cycles;
                backend = cfg.backend;
              }
            cfg.algorithm g)
    else None
  in
  let incomplete =
    match plan with
    | Some (Stdlib.Error (Compiler.Cycle_budget_exceeded n)) ->
      Some
        (Printf.sprintf
           "interval computation gave up after %d enumerated cycles; \
            interval rules (FS3xx) were skipped"
           n)
    | _ -> None
  in
  { Lint.g; cfg; dag; connected; classification; plan; incomplete }

(* Every cycle of a DAG, enumerated up front; [None] on a cyclic graph
   or past the default lint budget. *)
let eager_cycles g =
  if not (Topo.is_dag g) then None
  else
    try
      Some (Cycles.enumerate ~max_cycles:Lint.default_config.Lint.max_cycles g)
    with Cycles.Budget_exceeded _ -> None

let multi_source c = not (Cycles.is_cs4_cycle c)

(* The eager FS201/FS202 of one configuration: the locations the rules
   must report, and whether FS202 leaves the report incomplete. A bad
   block decides both rules; its witnesses are the first multi-source
   cycles among the first [max_cycles] cycles of that block, in
   enumeration order (FS201 one, FS202 up to five), and a block whose
   budget ran out before any is reported at its endpoints. Without a
   classification FS202 reads the whole graph the same way, and a budget
   that runs out before any witness is incomplete. [None]: the eager
   enumeration itself ran out, so only the structural checks apply. *)
type eager_fs2 = {
  fs201 : Lint.location option;
  fs202 : Lint.location list;
  fs202_incomplete : bool;
}

let ids c = List.map (fun (o : Cycles.oriented) -> o.Cycles.edge.Graph.id) c
let channels c = Lint.Channels (ids c)

let block_ids g bsrc bsnk =
  let _, _, es =
    List.find
      (fun (s, t, _) -> s = bsrc && t = bsnk)
      (Articulation.serial_blocks g)
  in
  List.map (fun (e : Graph.edge) -> e.Graph.id) es

let in_block block c = List.for_all (fun id -> List.mem id block) (ids c)

let eager_fs2 (cfg : Lint.config) g classification cycles =
  let first_bad k cs =
    Tutil.take k (List.filter multi_source (Tutil.take cfg.max_cycles cs))
  in
  match (classification, cycles) with
  | Some (Ok _), _ ->
    Some { fs201 = None; fs202 = []; fs202_incomplete = false }
  | _, None -> None
  | ( Some (Stdlib.Error (Cs4.Bad_block { block_source; block_sink; _ })),
      Some all ) ->
    let block =
      List.filter (in_block (block_ids g block_source block_sink)) all
    in
    let ends = Lint.Nodes [ block_source; block_sink ] in
    Some
      {
        fs201 =
          Some (match first_bad 1 block with c :: _ -> channels c | [] -> ends);
        fs202 =
          (match first_bad 5 block with
          | [] -> [ ends ]
          | cs -> List.map channels cs);
        fs202_incomplete = false;
      }
  | _, Some all ->
    let found = first_bad 5 all in
    Some
      {
        fs201 = None;
        fs202 = List.map channels found;
        fs202_incomplete = found = [] && List.length all > cfg.max_cycles;
      }

(* The cycle a channel-list location names, re-oriented from its edge
   ids; [None] unless consecutive channels share an endpoint, the walk
   closes and no vertex repeats. *)
let cycle_of_channels g ids =
  let edges = List.map (Graph.edge g) ids in
  let walk v0 =
    let rec go v seen acc = function
      | [] -> if v = v0 then Some (List.rev acc) else None
      | (e : Graph.edge) :: rest ->
        let fwd = e.src = v in
        if not (fwd || e.dst = v) then None
        else
          let w = if fwd then e.dst else e.src in
          if rest <> [] && List.mem w seen then None
          else go w (w :: seen) ({ Cycles.edge = e; fwd } :: acc) rest
    in
    go v0 [ v0 ] [] edges
  in
  match edges with
  | [] | [ _ ] -> None
  | e0 :: _ -> (
    match walk e0.Graph.src with Some c -> Some c | None -> walk e0.Graph.dst)

(* Every witness FS201/FS202 report is a multi-source simple cycle, inside
   the rejected block when there is one. *)
let witness_ok g classification (d : Lint.diagnostic) =
  match d.Lint.location with
  | Lint.Channels ids -> (
    match cycle_of_channels g ids with
    | None -> false
    | Some c -> (
      multi_source c
      &&
      match classification with
      | Some (Stdlib.Error (Cs4.Bad_block { block_source; block_sink; _ })) ->
        in_block (block_ids g block_source block_sink) c
      | _ -> true))
  | Lint.Nodes [ _; _ ] -> d.Lint.witness = []
  | _ -> false

let differential_families =
  [
    ("random_sp", Tutil.random_sp_of_seed ?max_edges:None);
    ("random_ladder", Tutil.random_ladder_of_seed ?max_rungs:None);
    ("random_cs4", Tutil.random_cs4_of_seed ?max_blocks:None);
    ("random_dense", Tutil.random_dense_of_seed);
    ("random_dag", Tutil.random_dag_of_seed);
    ( "diamond_chain",
      fun seed ->
        Topo_gen.diamond_chain ~bypass:(seed mod 2 = 1)
          ~diamonds:(1 + (seed / 2 mod 8))
          ~cap:(1 + (seed mod 5)) () );
  ]

let algorithms =
  [ Compiler.Propagation; Compiler.Non_propagation; Compiler.Relay_propagation ]

let backends = [ Compiler.Exact; Compiler.Lp; Compiler.Auto ]

(* One config per algorithm x backend. A third of the seeds run a budget
   of 0-6 cycles, so the incomplete paths of both sides are exercised. *)
let configs seed =
  let max_cycles =
    if seed mod 3 = 0 then seed / 3 mod 7 else Lint.default_config.max_cycles
  in
  List.concat_map
    (fun algorithm ->
      List.map
        (fun backend ->
          { Lint.default_config with Lint.algorithm; backend; max_cycles })
        backends)
    algorithms

let backend_name = function
  | Compiler.Exact -> "exact"
  | Compiler.Lp -> "lp"
  | Compiler.Auto -> "auto"

let algorithm_name = function
  | Compiler.Propagation -> "propagation"
  | Compiler.Non_propagation -> "non-propagation"
  | Compiler.Relay_propagation -> "relay"

(* FS201 and FS202 fire exactly when the eager rules do, at the same
   locations and severities, FS201 with the reference's message and
   fixit; every other finding is the reference's, witnesses and fixits
   included. The report is incomplete exactly when the plan gave up on
   its budget, FS303's whole-graph fold ran out under Propagation, or
   FS202's whole-graph search ran out before its first witness. *)
let agrees_with_reference ?plan ~cycles (cfg : Lint.config) g =
  let ctx = reference_ctx ?plan cfg g in
  let plan_incomplete = ctx.Lint.incomplete <> None in
  let expected = Lint.run_ctx ctx in
  let actual = Lint.run ~config:cfg ?plan g in
  let codes (r : Lint.report) =
    String.concat ","
      (List.map (fun (d : Lint.diagnostic) -> d.Lint.code) r.diagnostics)
  in
  let where () =
    Printf.sprintf "%s/%s, budget %d: reference [%s], got [%s] %s"
      (algorithm_name cfg.algorithm)
      (backend_name cfg.backend)
      cfg.max_cycles (codes expected) (codes actual)
      (Option.value ~default:"complete" actual.incomplete)
  in
  let pick code (r : Lint.report) =
    List.filter (fun (d : Lint.diagnostic) -> d.Lint.code = code) r.diagnostics
  in
  (* every field, the fixit read through its cell *)
  let others (r : Lint.report) =
    List.filter_map
      (fun (d : Lint.diagnostic) ->
        if d.Lint.code = "FS201" || d.Lint.code = "FS202" then None
        else
          Some
            ( d.Lint.code, d.severity, d.location, d.message, d.witness,
              Lint.fixit d ))
      r.diagnostics
  in
  if others expected <> others actual then
    QCheck.Test.fail_reportf "findings other than FS201/FS202 differ (%s)"
      (where ());
  let fs201 = pick "FS201" actual and fs202 = pick "FS202" actual in
  let bad_block =
    match ctx.classification with
    | Some (Stdlib.Error (Cs4.Bad_block _)) -> true
    | _ -> false
  in
  (* the classification decides FS201; its message and fixit are the
     reference's *)
  (match (fs201, pick "FS201" expected) with
  | [], [] when not bad_block -> ()
  | [ d ], [ e ] when bad_block ->
    if
      d.Lint.message <> e.Lint.message
      || d.Lint.severity <> e.Lint.severity
      || Lint.fixit d <> Lint.fixit e
      || d.Lint.severity
         <> (if cfg.backend = Compiler.Lp then Lint.Warning else Lint.Error)
    then QCheck.Test.fail_reportf "FS201 differs (%s)" (where ())
  | _ -> QCheck.Test.fail_reportf "FS201 fires differently (%s)" (where ()));
  if bad_block && fs202 = [] then
    QCheck.Test.fail_reportf "FS202 silent on a bad block (%s)" (where ());
  if
    List.exists
      (fun (d : Lint.diagnostic) -> d.Lint.severity <> Lint.Warning)
      fs202
  then QCheck.Test.fail_reportf "FS202 is not a Warning (%s)" (where ());
  if not (List.for_all (witness_ok g ctx.classification) (fs201 @ fs202)) then
    QCheck.Test.fail_reportf "not a multi-source cycle of the block (%s)"
      (where ());
  let locations ds =
    List.map (fun (d : Lint.diagnostic) -> d.Lint.location) ds
  in
  let sorted l = List.sort compare l in
  let fs202_incomplete =
    match eager_fs2 cfg g ctx.classification cycles with
    | None -> None
    | Some e ->
      if locations fs201 <> Option.to_list e.fs201 then
        QCheck.Test.fail_reportf "FS201 witness is not the eager one (%s)"
          (where ());
      if sorted (locations fs202) <> sorted e.fs202 then
        QCheck.Test.fail_reportf "FS202 witnesses are not the eager ones (%s)"
          (where ());
      Some e.fs202_incomplete
  in
  let fs303_incomplete =
    match (cfg.algorithm, ctx.plan) with
    | Compiler.Propagation, Some (Ok _) -> (
      match cycles with
      | Some all -> List.length all > cfg.max_cycles
      | None -> true)
    | _ -> false
  in
  (match fs202_incomplete with
  | None -> ()
  | Some fs202_incomplete ->
    let expected_incomplete =
      plan_incomplete || fs303_incomplete || fs202_incomplete
    in
    if expected_incomplete <> (actual.incomplete <> None) then
      QCheck.Test.fail_reportf "incomplete differs (%s)" (where ()));
  true

let prop_lint_eq_reference (fname, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "lint = eager reference (%s, 3 algorithms x 3 backends)"
       fname)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      let cycles = eager_cycles g in
      List.for_all
        (fun cfg -> agrees_with_reference ~cycles cfg g)
        (configs seed))

(* The plan a server lints after a reconfigure: Compiler.recompile's,
   audited against the reference run on that same plan (its own
   classification, its own eager cycles). *)
let prop_recompiled_plan_eq_reference =
  Tutil.qtest ~count:300 "lint of a recompiled plan = eager reference"
    Tutil.seed_gen (fun seed ->
      let _, family =
        List.nth differential_families
          (seed mod List.length differential_families)
      in
      let g0 = family seed in
      let rng = Tutil.rng_of (seed + 0x11e7) in
      match Edit.apply g0 (Tutil.random_ops rng g0) with
      | Error e -> Alcotest.failf "generator produced an invalid script: %s" e
      | Ok delta ->
        let g = delta.Edit.graph in
        let cycles = eager_cycles g in
        List.for_all
          (fun (cfg : Lint.config) ->
            let options =
              {
                Compiler.Options.default with
                max_cycles = cfg.max_cycles;
                backend = cfg.backend;
              }
            in
            let cache = Compiler.cache_create () in
            ignore (Compiler.compile_cached ~options cache cfg.algorithm g0);
            let plan =
              Result.map fst
                (Compiler.recompile ~options cache cfg.algorithm delta)
            in
            agrees_with_reference ~plan ~cycles cfg g)
          (configs seed))

(* What the two rule shortcuts rest on, checked against enumeration:
   a CS4 graph has no multi-source cycle (FS202 reads no cycles on it),
   and a decomposition into SP blocks only is SP as a whole (FS203
   fires only when a ladder block exists). *)
let prop_rule_shortcuts (fname, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "CS4 has no multi-source cycle; SP blocks only is SP (%s)"
       fname)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      match Cs4.classify g with
      | Error _ -> true
      | Ok cls ->
        let no_bad_cycle =
          match Cycles.enumerate ~max_cycles:5_000 g with
          | cs -> List.for_all Cycles.is_cs4_cycle cs
          | exception Cycles.Budget_exceeded _ -> true
        in
        let all_sp =
          List.for_all
            (function _, _, Cs4.Sp_block _ -> true | _ -> false)
            cls.Cs4.blocks
        in
        no_bad_cycle
        && ((not all_sp)
           || Result.is_ok (Fstream_spdag.Sp_recognize.recognize g)))

(* FS203 reads its count off the blocks; on every draw it fires exactly
   when the whole-graph series/parallel reduction stalls, with the
   count of super-edges that reduction is left with. *)
let prop_fs203_count (fname, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "FS203 count = stalled whole-graph reduction (%s)" fname)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      let stalled =
        match Fstream_spdag.Sp_recognize.recognize g with
        | Ok _ -> None
        | Error (Fstream_spdag.Sp_recognize.Irreducible { remaining_edges }) ->
          Some remaining_edges
        | Error Fstream_spdag.Sp_recognize.Not_two_terminal ->
          Alcotest.fail "generator drew a graph that is not two-terminal"
      in
      let reported =
        List.find_map
          (fun (d : Lint.diagnostic) ->
            if d.Lint.code <> "FS203" then None
            else
              Some
                (Scanf.sscanf d.Lint.message
                   "not series-parallel: the series/parallel reduction \
                    stalls with %d super-edges"
                   Fun.id))
          (Lint.run g).Lint.diagnostics
      in
      if reported <> stalled then
        QCheck.Test.fail_reportf "FS203 reports %s, the reduction %s"
          (Option.fold ~none:"nothing" ~some:string_of_int reported)
          (Option.fold ~none:"succeeds" ~some:string_of_int stalled);
      true)

let fs203_families =
  [
    ("random_cs4", Tutil.random_cs4_of_seed ?max_blocks:None);
    ("random_ladder", Tutil.random_ladder_of_seed ?max_rungs:None);
    ("bridged_cs4", Tutil.bridged_cs4_of_seed);
  ]

(* One search serves FS201 and FS202: on every draw with a rejected
   block, FS201's witness is FS202's first cycle, or, when the budget
   left none, both sit at the block's endpoints. *)
let prop_fs201_is_first_fs202 (fname, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "FS201's witness is FS202's first cycle (%s)" fname)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      match Cs4.classify g with
      | Error (Cs4.Bad_block _) ->
        List.for_all
          (fun max_cycles ->
            let r =
              Lint.run ~config:{ Lint.default_config with max_cycles } g
            in
            let first =
              List.find
                (fun (d : Lint.diagnostic) ->
                  d.Lint.code = "FS202"
                  && (match d.Lint.location with
                     | Lint.Channels _ ->
                       String.starts_with ~prefix:"multi-source cycle 1 "
                         d.Lint.message
                     | _ -> true))
                r.Lint.diagnostics
            in
            (find "FS201" r).Lint.location = first.Lint.location)
          [ seed mod 7; Lint.default_config.max_cycles ]
      | _ -> true)

(* The bounded search examines the rejected block's cycles only. An SP
   fan on the lowest node ids (28 cycles, all single-source, first in
   whole-graph order) feeds a 3 x 3 layered-dense block. Under a budget
   of exactly the block cycles up to its fifth multi-source one, FS201
   and all five FS202 findings carry witnesses and the report is
   complete, though the whole graph has more cycles than the budget
   before its first multi-source one; one cycle less and the fifth
   witness is gone. *)
let fan_then_dense () =
  let fan = 8 in
  let s = fan + 1 in
  let dense = Topo_gen.layered_dense ~layers:3 ~width:3 ~cap:2 in
  Graph.make
    ~nodes:(s + Graph.num_nodes dense)
    (List.concat_map (fun i -> [ (0, i, 2); (i, s, 2) ]) (List.init fan succ)
    @ List.map
        (fun (e : Graph.edge) -> (e.src + s, e.dst + s, e.cap))
        (Graph.edges dense))

let test_block_search_budget () =
  let g = fan_then_dense () in
  let all = Cycles.enumerate g in
  let fan_edges = 16 in
  let block =
    List.filter (fun c -> List.for_all (( <= ) fan_edges) (ids c)) all
  in
  (* 1-based position of the fifth multi-source cycle of the block *)
  let fifth =
    let rec go i k = function
      | [] -> Alcotest.fail "fewer than five multi-source cycles"
      | c :: rest ->
        let k = if multi_source c then k + 1 else k in
        if k = 5 then i else go (i + 1) k rest
    in
    go 1 0 block
  in
  let first_bad_overall =
    let rec go i = function
      | c :: rest -> if multi_source c then i else go (i + 1) rest
      | [] -> max_int
    in
    go 1 all
  in
  Alcotest.(check bool)
    "the whole graph meets its first multi-source cycle past the budget" true
    (first_bad_overall > fifth);
  let lint max_cycles =
    Lint.run
      ~config:
        { Lint.default_config with Lint.backend = Compiler.Lp; max_cycles }
      g
  in
  let witnessed code (r : Lint.report) =
    List.length
      (List.filter
         (fun (d : Lint.diagnostic) ->
           d.Lint.code = code
           && match d.Lint.location with Lint.Channels _ -> true | _ -> false)
         r.diagnostics)
  in
  let r = lint fifth in
  Alcotest.(check bool) "complete" true (r.Lint.incomplete = None);
  Alcotest.(check int) "FS201 has its witness" 1 (witnessed "FS201" r);
  Alcotest.(check int) "five FS202 witnesses" 5 (witnessed "FS202" r);
  let r = lint (fifth - 1) in
  Alcotest.(check bool) "still complete" true (r.Lint.incomplete = None);
  Alcotest.(check int) "one cycle less: four FS202 witnesses" 4
    (witnessed "FS202" r);
  (* FS303 still folds the whole graph *)
  Alcotest.(check bool)
    "propagation runs out on the whole graph" true
    ((Lint.run
        ~config:
          {
            prop_config with
            Lint.backend = Compiler.Lp;
            max_cycles = List.length all - 1;
          }
        g)
       .Lint.incomplete
    <> None)

(* The served non-CS4 tenant: the 7 x 3 layered-dense demo has about
   28 million cycles, far past the budget, yet under the LP backend lint
   completes with a witnessed FS201 Warning and five FS202 Warnings. *)
let test_layered_dense_lp () =
  let g = Topo_gen.layered_dense ~layers:7 ~width:3 ~cap:2 in
  let r =
    Lint.run ~config:{ Lint.default_config with Lint.backend = Compiler.Lp } g
  in
  Alcotest.(check bool) "complete" true (r.Lint.incomplete = None);
  Alcotest.(check int) "no Errors" 0 (errors r);
  let d = find "FS201" r in
  Alcotest.(check bool)
    "FS201 is a Warning" true
    (d.Lint.severity = Lint.Warning);
  Alcotest.(check bool) "FS201 has a witness" true (d.Lint.witness <> []);
  Alcotest.(check int) "five FS202 findings" 5
    (List.length
       (List.filter
          (fun (d : Lint.diagnostic) -> d.Lint.code = "FS202")
          r.diagnostics))

(* Under Non-Propagation no rule's cycle search can leave a two-terminal
   DAG undecided: a draw that compiles lints complete, on every backend. *)
let prop_nonprop_compiled_is_complete (fname, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "non-propagation: compiled => lint complete (%s)" fname)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      List.for_all
        (fun backend ->
          let config = { Lint.default_config with Lint.backend } in
          let options =
            {
              Compiler.Options.default with
              max_cycles = config.max_cycles;
              backend;
            }
          in
          match Compiler.compile ~options Compiler.Non_propagation g with
          | Error _ -> true
          | Ok p -> (Lint.run ~config ~plan:(Ok p) g).Lint.incomplete = None)
        backends)

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "FS101 directed cycle" `Quick test_fs101;
    Alcotest.test_case "FS102 disconnected" `Quick test_fs102;
    Alcotest.test_case "FS103 arity" `Quick test_fs103;
    Alcotest.test_case "FS104 unreachable" `Quick test_fs104;
    Alcotest.test_case "FS102 and FS104 findings pinned" `Quick
      test_fs102_fs104_pinned;
    Alcotest.test_case "FS201 non-CS4 witness" `Quick test_fs201;
    Alcotest.test_case "FS202 multi-source cycles" `Quick test_fs202;
    Alcotest.test_case "FS203 not SP" `Quick test_fs203;
    Alcotest.test_case "FS301 undersized buffers" `Quick test_fs301;
    Alcotest.test_case "FS301 fix round-trip" `Quick test_fs301_fix_roundtrip;
    Alcotest.test_case "FS301 fixit computed on first read" `Quick
      test_fs301_fixit_on_read;
    Alcotest.test_case "FS301 fixit sized from the plan" `Quick
      test_fs301_fixit_from_plan;
    Alcotest.test_case "FS302 threshold audit" `Quick test_fs302;
    Alcotest.test_case "FS303 budget erosion" `Quick test_fs303;
    Alcotest.test_case "FS304 parallel asymmetry" `Quick test_fs304;
    Alcotest.test_case "FS305 LP run-sum audit" `Quick test_fs305;
    Alcotest.test_case "FS305 witness: lowest branch id, lowest edge" `Quick
      test_fs305_witness_rule;
    Alcotest.test_case "FS201 downgrade under lp" `Quick
      test_fs201_lp_downgrade;
    Alcotest.test_case "FS401 unknown bindings" `Quick test_fs401;
    Alcotest.test_case "FS402 filter at split" `Quick test_fs402;
    Alcotest.test_case "FS403 duplicate directives" `Quick test_fs403;
    Alcotest.test_case "fix butterfly" `Quick test_fix_butterfly;
    Alcotest.test_case "fix refuses clean reports" `Quick test_fix_nothing_to_do;
    Alcotest.test_case "FS303 guards the contract" `Quick
      test_fs303_guards_the_contract;
    Alcotest.test_case "FS303 multigraph run-sum" `Quick
      test_fs303_multigraph_run_sum;
    Alcotest.test_case "block search budget counts the block only" `Quick
      test_block_search_budget;
    Alcotest.test_case "layered-dense under lp completes" `Quick
      test_layered_dense_lp;
    prop_lint_clean_implies_safe;
    prop_recompiled_plan_eq_reference;
    Alcotest.test_case "FS201 fixit honours the cycle budget" `Quick
      test_fs201_fixit_budget;
    Alcotest.test_case "FS201 fixit computed on first read, any domain"
      `Quick test_fs201_fixit_on_read;
  ]
  @ List.map prop_nonprop_compiled_is_complete
      [ ("random_dense", Tutil.random_dense_of_seed);
        ("random_dag", Tutil.random_dag_of_seed) ]
  @ List.map prop_lint_eq_reference differential_families
  @ List.map prop_rule_shortcuts differential_families
  @ List.map prop_fs203_count fs203_families
  @ List.map prop_fs201_is_first_fs202
      [ ("random_dense", Tutil.random_dense_of_seed);
        ("random_dag", Tutil.random_dag_of_seed) ]
