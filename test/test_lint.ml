(* The lint engine: every FS* rule has a positive and a negative
   fixture, and the severity contract is property-tested — a report
   with zero Error findings means the configured plan is safe, checked
   against the exhaustive model checker in all three sound wrapper
   configurations (cf. test_soundness.ml). *)

open Fstream_graph
open Fstream_core
module Lint = Fstream_analysis.Lint
module Topo_gen = Fstream_workloads.Topo_gen
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

(* ------------------------------------------------------------------ *)
(* FS2xx: cycle structure *)

let test_fs201 () =
  let r = Lint.run (Topo_gen.fig4_butterfly ~cap:2) in
  check_fires "butterfly" "FS201" r;
  let d = find "FS201" r in
  Alcotest.(check bool) "witness cycle shown" true (d.Lint.witness <> []);
  Alcotest.(check bool)
    "carries a reroute fixit" true
    (match d.Lint.fixit with Some (Lint.Reroute _) -> true | _ -> false);
  check_silent "fig5 ladder" "FS201" (Lint.run (Topo_gen.fig5_ladder ~cap:2))

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
    (match d.Lint.fixit with Some (Lint.Scale_buffers c) -> c >= 4 | _ -> false);
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
        (d.Lint.fixit = Some (Lint.Scale_buffers expected)))
    [ ("undersized", undersized ());
      ("wide ladder", Topo_gen.wide_ladder ~rungs:6 ~cap:1) ]

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
   supplied table, with the Farkas-decoded demand chain as witness
   (the same fixture test_lp.ml checks at the Lp.audit level). *)
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
  Alcotest.(check bool) "carries the demand chain" true (d.Lint.witness <> []);
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
(* differential: lazy, plan-taking lint = the eager reference          *)

module Cs4 = Fstream_ladder.Cs4

(* The rules' context as lint built it before cycles became lazy and
   the plan could come from the caller — kept verbatim as the reference:
   every cycle enumerated up front, its own classification, and (unless
   a plan is given) its own cold compile. *)
let reference_ctx ?plan (cfg : Lint.config) g : Lint.ctx =
  let dag = Topo.is_dag g in
  let connected = Topo.connected g in
  let incomplete = ref None in
  let cycles =
    if not dag then None
    else
      try Some (Cycles.enumerate ~max_cycles:cfg.max_cycles g)
      with Cycles.Budget_exceeded _ ->
        incomplete :=
          Some
            (Printf.sprintf
               "cycle enumeration exceeded the budget of %d simple cycles; \
                cycle-structure rules (FS2xx, FS303) were skipped"
               cfg.max_cycles);
        None
  in
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
  (match plan with
  | Some (Stdlib.Error (Compiler.Cycle_budget_exceeded n))
    when !incomplete = None ->
    incomplete :=
      Some
        (Printf.sprintf
           "interval computation gave up after %d enumerated cycles; \
            interval rules (FS3xx) were skipped"
           n)
  | _ -> ());
  {
    Lint.g;
    cfg;
    dag;
    connected;
    cycles = Lazy.from_val cycles;
    classification;
    plan;
    incomplete = !incomplete;
  }

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

(* Findings must be identical, witnesses and fixits included. The
   verdicts' completeness must be identical whenever the reference is
   complete; where it is not, lint may be complete only on a CS4 graph
   under a non-Propagation audit — the one case no rule reads cycles. *)
let agrees_with_reference ?plan (cfg : Lint.config) g =
  let expected = Lint.run_ctx (reference_ctx ?plan cfg g) in
  let actual = Lint.run ~config:cfg ?plan g in
  let codes (r : Lint.report) =
    String.concat ","
      (List.map (fun (d : Lint.diagnostic) -> d.Lint.code) r.diagnostics)
  in
  let where () =
    Printf.sprintf "%s/%s, budget %d: expected [%s] %s, got [%s] %s"
      (algorithm_name cfg.algorithm)
      (backend_name cfg.backend)
      cfg.max_cycles (codes expected)
      (Option.value ~default:"complete" expected.incomplete)
      (codes actual)
      (Option.value ~default:"complete" actual.incomplete)
  in
  if expected.diagnostics <> actual.diagnostics then
    QCheck.Test.fail_reportf "findings differ (%s)" (where ());
  (match (expected.incomplete, actual.incomplete) with
  | Some _, None ->
    if not (Cs4.is_cs4 g && cfg.algorithm <> Compiler.Propagation) then
      QCheck.Test.fail_reportf "complete where the reference is not (%s)"
        (where ())
  | e, a ->
    if e <> a then
      QCheck.Test.fail_reportf "incomplete differs (%s)" (where ()));
  true

let prop_lint_eq_reference (fname, family) =
  Tutil.qtest ~count:300
    (Printf.sprintf "lint = eager reference (%s, 3 algorithms x 3 backends)"
       fname)
    Tutil.seed_gen (fun seed ->
      let g = family seed in
      List.for_all (fun cfg -> agrees_with_reference cfg g) (configs seed))

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
            agrees_with_reference ~plan cfg delta.Edit.graph)
          (configs seed))

(* What the two rule shortcuts rest on, checked against enumeration:
   a CS4 graph has no multi-source cycle (FS202 reads no cycles on it),
   and a decomposition into SP blocks only is SP as a whole (FS203 runs
   the whole-graph reduction only when a ladder block exists). *)
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

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "FS101 directed cycle" `Quick test_fs101;
    Alcotest.test_case "FS102 disconnected" `Quick test_fs102;
    Alcotest.test_case "FS103 arity" `Quick test_fs103;
    Alcotest.test_case "FS104 unreachable" `Quick test_fs104;
    Alcotest.test_case "FS201 non-CS4 witness" `Quick test_fs201;
    Alcotest.test_case "FS202 multi-source cycles" `Quick test_fs202;
    Alcotest.test_case "FS203 not SP" `Quick test_fs203;
    Alcotest.test_case "FS301 undersized buffers" `Quick test_fs301;
    Alcotest.test_case "FS301 fix round-trip" `Quick test_fs301_fix_roundtrip;
    Alcotest.test_case "FS301 fixit sized from the plan" `Quick
      test_fs301_fixit_from_plan;
    Alcotest.test_case "FS302 threshold audit" `Quick test_fs302;
    Alcotest.test_case "FS303 budget erosion" `Quick test_fs303;
    Alcotest.test_case "FS304 parallel asymmetry" `Quick test_fs304;
    Alcotest.test_case "FS305 LP run-sum audit" `Quick test_fs305;
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
    prop_lint_clean_implies_safe;
    prop_recompiled_plan_eq_reference;
  ]
  @ List.map prop_lint_eq_reference differential_families
  @ List.map prop_rule_shortcuts differential_families
