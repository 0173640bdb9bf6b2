(* streamcheck — the paper's compiler pass as a command-line tool.

   Classify a streaming topology (SP / SP-ladder / CS4 / general),
   compute dummy intervals with the appropriate algorithm, and simulate
   the application under a filtering workload.

     streamcheck classify --demo fig4-left
     streamcheck intervals --demo fig3 --algorithm non-propagation
     streamcheck simulate --demo fig2 --inputs 100 --avoidance propagation
     streamcheck intervals --file app.graph                          *)

open Fstream_graph
open Fstream_ladder
open Fstream_core
open Fstream_runtime
open Fstream_workloads
open Cmdliner
module Verify = Fstream_verify.Verify

(* ------------------------------------------------------------------ *)
(* Graph sources                                                        *)

let demos =
  [
    ("fig1", fun ~seed:_ -> Topo_gen.fig1_split_join ~branches:3 ~cap:2);
    ("fig2", fun ~seed:_ -> Topo_gen.fig2_triangle ~cap:2);
    ("fig3", fun ~seed:_ -> Topo_gen.fig3_hexagon ());
    ("fig4-left", fun ~seed:_ -> Topo_gen.fig4_left ~cap:2);
    ("erosion", fun ~seed:_ -> Topo_gen.erosion_counterexample ());
    ("butterfly", fun ~seed:_ -> Topo_gen.fig4_butterfly ~cap:2);
    ("fig5", fun ~seed:_ -> Topo_gen.fig5_ladder ~cap:2);
    ("wide-ladder", fun ~seed:_ -> Topo_gen.wide_ladder ~rungs:6 ~cap:2);
    ("pipeline", fun ~seed:_ -> Topo_gen.pipeline ~stages:8 ~cap:2);
    (* dense stacked bipartite layers: ~28M undirected simple cycles,
       past the exact fallback's default 10M budget (exit 14), while
       --backend lp compiles it in milliseconds *)
    ( "layered-dense",
      fun ~seed:_ -> Topo_gen.layered_dense ~layers:7 ~width:3 ~cap:2 );
    (* 97 nodes: above the old parallel runtime's 64-node cap *)
    ("deep-pipeline", fun ~seed:_ -> Topo_gen.pipeline ~stages:96 ~cap:2);
    ( "random-cs4",
      fun ~seed ->
        Topo_gen.random_cs4
          (Random.State.make [| seed |])
          ~blocks:3 ~block_edges:8 ~max_cap:4 );
  ]

let load_graph ~seed file demo =
  match (file, demo) with
  | Some path, None -> Graph_io.load path
  | None, Some name -> (
    match List.assoc_opt name demos with
    | Some f -> Ok (f ~seed)
    | None ->
      Error
        (Printf.sprintf "unknown demo %S; available: %s" name
           (String.concat ", " (List.map fst demos))))
  | Some _, Some _ -> Error "pass either --file or --demo, not both"
  | None, None -> Error "pass --file FILE or --demo NAME"

(* Exit-code bands — the single place the whole map is written down.
   Scripts and the cram tests branch on these; never reuse a number
   across bands.

     0        success (simulate: run completed; lint: no findings at or
              above --fail-on; verify: safe; serve: every tenant
              admitted and completed)
     1        usage / topology load error (cmdliner reserves 124-125
              for CLI parse errors)
     2        simulate: run did not complete / verify: deadlock found /
              repair failed
     3        verify: state budget exhausted
     10-14    plan rejected, one code per Compiler.error below
     20-24    lint band: 20 Error findings, 21 warnings under
              --fail-on warning, 22 fix failed, 23 analysis
              incomplete, 24 spec load error
     30-32    serve band: 30 tenant rejected (at admission, or a
              --reconfigure script refused: lint, plan, or edit
              error), 31 an admitted tenant did not complete, 32
              tenant spec load error; worst wins (32 > 30 > 31 > 0) *)

(* Typed compiler errors get their own exit-code band so scripts (and
   the cram tests) can tell rejection modes apart without parsing
   stderr. *)
let plan_error_code = function
  | Compiler.Not_a_dag -> 10
  | Compiler.Not_two_terminal -> 11
  | Compiler.Disconnected -> 12
  | Compiler.Non_cs4_rejected _ -> 13
  | Compiler.Cycle_budget_exceeded _ -> 14

let plan_error e =
  Format.eprintf "error: %a@." Compiler.pp_error e;
  plan_error_code e

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:"Topology file (see lib/workloads/graph_io.mli for the format).")

let demo_arg =
  let names = String.concat ", " (List.map fst demos) in
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "demo" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Built-in demo topology: %s." names))

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Seed for randomized demo topologies ($(b,random-cs4)) and for the \
           filtering workload of $(b,simulate).")

(* Every subcommand takes its topology the same way; one term carries
   the whole flag group so commands cannot drift apart. *)
type source = { file : string option; demo : string option; seed : int }

let source_term =
  Term.(
    const (fun file demo seed -> { file; demo; seed })
    $ file_arg $ demo_arg $ seed_arg)

let load_source src = load_graph ~seed:src.seed src.file src.demo

(* Files may carry per-node behaviours (App_spec); demos and plain
   graph files get a uniform workload. Shared by simulate and lint. *)
let load_app src =
  match (src.file, src.demo) with
  | Some path, None -> (
    match App_spec.load path with
    | Error e -> Error e
    | Ok spec ->
      Ok
        ( spec.App_spec.graph,
          if spec.App_spec.behaviors = [] then None else Some spec ))
  | _ -> (
    match load_source src with
    | Error e -> Error e
    | Ok g -> Ok (g, None))

(* ------------------------------------------------------------------ *)
(* classify                                                             *)

let classify_cmd =
  let run src =
    match load_source src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok g ->
      Format.printf "%a@.@." Graph.pp g;
      (match Cs4.classify g with
      | Ok cls ->
        Format.printf "CS4: serial composition of %d block(s)@."
          (List.length cls.Cs4.blocks);
        List.iter
          (fun (bsrc, bsnk, b) ->
            match b with
            | Cs4.Sp_block t ->
              Format.printf "  block %d..%d: series-parallel, %d edges@." bsrc
                bsnk t.Fstream_spdag.Sp_tree.n_edges
            | Cs4.Ladder_block lad ->
              Format.printf "  block %d..%d: SP-ladder, %d rung(s)@." bsrc bsnk
                (Ladder.num_rungs lad);
              Format.printf "    %a@." Ladder.pp lad)
          cls.Cs4.blocks
      | Error failure -> (
        Format.printf "not CS4: %a@." Cs4.pp_failure failure;
        (* the witness comes from the rejected block alone *)
        let witness =
          match failure with
          | Cs4.Bad_block { block_ids; _ } ->
            fst (Cs4.block_witnesses g ~block_ids ~limit:1)
          | Cs4.Not_two_terminal -> []
        in
        List.iter
          (fun c ->
            Format.printf
              "  witness cycle with sources {%s} and sinks {%s}@."
              (String.concat ", "
                 (List.map string_of_int (Cycles.cycle_sources c)))
              (String.concat ", "
                 (List.map string_of_int (Cycles.cycle_sinks c))))
          witness));
      0
  in
  let doc = "Classify a topology: SP, SP-ladder, CS4 chain, or general DAG." in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run $ source_term)

(* ------------------------------------------------------------------ *)
(* intervals                                                            *)

let algorithm_conv =
  Arg.enum
    [
      ("propagation", Compiler.Propagation);
      ("non-propagation", Compiler.Non_propagation);
      ("relay", Compiler.Relay_propagation);
    ]

let algorithm_arg =
  Arg.(
    value
    & opt algorithm_conv Compiler.Non_propagation
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:
          "Interval algorithm: $(b,propagation), $(b,non-propagation) or \
           $(b,relay).")

let no_general_arg =
  Arg.(
    value & flag
    & info [ "no-general" ]
        ~doc:
          "Reject non-CS4 topologies instead of falling back to the \
           exponential general-DAG algorithm (mirrors a compiler that only \
           accepts the polynomial classes).")

let max_cycles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:
          "Budget of simple cycles a cycle search may examine. When \
           compiling: the general fallback's enumeration (default 10 \
           million). For $(b,lint): each rule's search, and each round of \
           FS201's reroute fixit (default 200,000).")

let backend_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("exact", Compiler.Exact);
             ("lp", Compiler.Lp);
             ("auto", Compiler.Auto);
           ])
        Compiler.Exact
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Interval machinery: $(b,exact) (the paper's constructions, \
           exponential on general DAGs), $(b,lp) (polynomial sufficient \
           intervals from one max-flow program per biconnected component, \
           any DAG), or $(b,auto) (exact until the cycle budget blows, then \
           LP).")

(* The compiler-configuration flag group, as a [Compiler.Options.t]
   transformer (shared by intervals, fuse, simulate, verify and serve,
   which add their own fields on top). *)
let compile_options_term =
  let combine no_general max_cycles backend (base : Compiler.Options.t) =
    {
      base with
      Compiler.Options.allow_general = not no_general;
      max_cycles =
        Option.value max_cycles ~default:base.Compiler.Options.max_cycles;
      backend;
    }
  in
  Term.(const combine $ no_general_arg $ max_cycles_arg $ backend_arg)

let intervals_cmd =
  let run src algorithm options =
    match load_source src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok g -> (
      match
        Compiler.compile ~options:(options Compiler.Options.default) algorithm g
      with
      | Error e -> plan_error e
      | Ok plan ->
        Format.printf "route: %a@." Compiler.pp_route plan.route;
        let thresholds =
          match algorithm with
          | Compiler.Propagation ->
            Compiler.propagation_thresholds g plan.intervals
          | _ -> Compiler.send_thresholds g plan.intervals
        in
        Format.printf "%-6s %-10s %4s %10s %10s@." "edge" "channel" "cap"
          "interval" "threshold";
        List.iter
          (fun (e : Graph.edge) ->
            Format.printf "e%-5d %3d -> %-4d %4d %10s %10s@." e.id e.src e.dst
              e.cap
              (Format.asprintf "%a" Interval.pp plan.intervals.(e.id))
              (match Thresholds.get thresholds e.id with
              | None -> "-"
              | Some k -> string_of_int k))
          (Graph.edges g);
        0)
  in
  let doc = "Compute dummy-message intervals for every channel." in
  Cmd.v
    (Cmd.info "intervals" ~doc)
    Term.(const run $ source_term $ algorithm_arg $ compile_options_term)

(* ------------------------------------------------------------------ *)
(* simulate                                                             *)

type avoidance_choice = A_none | A_prop | A_nonprop

let avoidance_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("none", A_none); ("propagation", A_prop); ("non-propagation", A_nonprop) ])
        A_nonprop
    & info [ "avoidance" ] ~docv:"MODE"
        ~doc:"Deadlock avoidance wrapper: $(b,none), $(b,propagation) or \
              $(b,non-propagation).")

(* Compile the threshold table a wrapper choice needs (shared by
   simulate and verify). *)
let resolve_avoidance ?(options = Compiler.Options.default) choice g =
  match choice with
  | A_none -> Ok Engine.No_avoidance
  | A_prop -> (
    match Compiler.compile ~options Compiler.Propagation g with
    | Ok p ->
      Ok (Engine.Propagation (Compiler.propagation_thresholds g p.intervals))
    | Error e -> Error e)
  | A_nonprop -> (
    match Compiler.compile ~options Compiler.Non_propagation g with
    | Ok p ->
      Ok (Engine.Non_propagation (Compiler.send_thresholds g p.intervals))
    | Error e -> Error e)

let inputs_arg =
  Arg.(
    value & opt int 1000
    & info [ "n"; "inputs" ] ~docv:"N" ~doc:"Number of input sequence numbers.")

let keep_arg =
  Arg.(
    value & opt float 0.7
    & info [ "keep" ] ~docv:"P"
        ~doc:"Per-channel probability that a node keeps (does not filter) an \
              output.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's event stream to FILE in Chrome trace_event JSON \
           (open in chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the run, print the metrics registry: per-channel \
           high-watermark occupancy and dummy overhead, per-node firing and \
           blocked-visit counts.")

let parallel_arg =
  Arg.(
    value & flag
    & info [ "parallel" ]
        ~doc:
          "Run on the sharded domain-pool runtime (kernels execute \
           concurrently on OCaml domains) instead of the deterministic \
           sequential scheduler. Dummy traffic is timing-dependent there; \
           data and sink counts stay schedule-independent.")

let pos_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some d when d >= 1 -> Ok d
    | _ -> Error (`Msg (Printf.sprintf "expected a positive int, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(
    value
    & opt (some pos_int_conv) None
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains for $(b,--parallel) (default: automatic).")

(* The engine flag group, shared by every command that executes a
   topology: which engine, and on how many domains. [run_engine] is
   the one place engine dispatch happens. *)
type engine_choice = { parallel : bool; domains : int option }

let engine_term =
  let combine parallel domains = { parallel; domains } in
  Term.(const combine $ parallel_arg $ domains_arg)

let run_engine ec ?sink ?deadlock_dump ~graph ~kernels ~inputs ~avoidance () =
  if ec.parallel then
    Fstream_parallel.Parallel_engine.run ?domains:ec.domains ?sink ~graph
      ~kernels ~inputs ~avoidance ()
  else Engine.run ?deadlock_dump ?sink ~graph ~kernels ~inputs ~avoidance ()

let fuse_flag_arg =
  Arg.(
    value & flag
    & info [ "fuse" ]
        ~doc:
          "Run the kernel-fusion pass first: chains of single-in/single-out \
           bridge nodes execute as one compound kernel over the fused \
           topology (internal channels become stack locals). Outcome and \
           sink counts are preserved; data-message counts drop with the \
           collapsed channels. Implies per-node workload RNG, like \
           $(b,--parallel).")

(* Per-node filter classes for fusion from a declarative spec: chains
   never span a behaviour change. *)
let spec_filter_class (spec : App_spec.t) =
  let classes = ref [] in
  let class_of b =
    match List.assoc_opt b !classes with
    | Some i -> i
    | None ->
      let i = List.length !classes in
      classes := (b, i) :: !classes;
      i
  in
  fun v ->
    class_of
      (match List.assoc_opt v spec.App_spec.behaviors with
      | Some b -> b
      | None -> spec.App_spec.default)

let simulate_cmd =
  let run src avoidance inputs keep engine trace_out metrics fuse options =
    match load_app src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok (g, spec) -> (
      let seed = src.seed in
      let kernels =
        match spec with
        | Some spec -> App_spec.kernels spec ~seed
        | None when engine.parallel || fuse ->
          (* per-node RNG: thread-safe under the pool runtime, and
             node-deterministic so counts are schedule-independent and
             fused runs comparable to unfused ones *)
          Filters.for_graph g (fun v outs ->
              Filters.bernoulli (Random.State.make [| seed; v |]) ~keep outs)
        | None ->
          let rng = Random.State.make [| seed |] in
          Filters.for_graph g (fun _ outs -> Filters.bernoulli rng ~keep outs)
      in
      let setup =
        if fuse then begin
          let filter_class = Option.map spec_filter_class spec in
          let with_fusion (fusion : Fusion.t) avoidance =
            let fw = Fused.make fusion kernels in
            Ok (fusion.Fusion.graph, Fused.kernels fw, avoidance)
          in
          match avoidance with
          | A_none -> with_fusion (Fusion.fuse ?filter_class g) Engine.No_avoidance
          | A_prop -> (
            match
              Compiler.compile
                ~options:
                  (options
                     { Compiler.Options.default with fuse = true; filter_class })
                Compiler.Propagation g
            with
            | Ok { Compiler.fused = Some { fusion; fused_intervals }; _ } ->
              with_fusion fusion
                (Engine.Propagation
                   (Compiler.propagation_thresholds fusion.Fusion.graph
                      fused_intervals))
            | Ok _ -> assert false
            | Error e -> Error e)
          | A_nonprop -> (
            match
              Compiler.compile
                ~options:
                  (options
                     { Compiler.Options.default with fuse = true; filter_class })
                Compiler.Non_propagation g
            with
            | Ok { Compiler.fused = Some { fusion; fused_intervals }; _ } ->
              with_fusion fusion
                (Engine.Non_propagation
                   (Compiler.send_thresholds fusion.Fusion.graph
                      fused_intervals))
            | Ok _ -> assert false
            | Error e -> Error e)
        end
        else
          Result.map
            (fun av -> (g, kernels, av))
            (resolve_avoidance ~options:(options Compiler.Options.default)
               avoidance g)
      in
      match setup with
      | Error e -> plan_error e
      | Ok (g, kernels, avoidance) ->
        let trace =
          Option.map
            (fun path ->
              let oc = open_out path in
              (Fstream_obs.Trace_json.sink (Format.formatter_of_out_channel oc), oc))
            trace_out
        in
        let collector =
          if metrics then Some (Fstream_obs.Metrics.collector ~graph:g ~inputs ())
          else None
        in
        let sink =
          match (trace, collector) with
          | None, None -> None
          | Some (s, _), None -> Some s
          | None, Some c -> Some (Fstream_obs.Metrics.sink c)
          | Some (s, _), Some c ->
            Some (Fstream_obs.Sink.tee s (Fstream_obs.Metrics.sink c))
        in
        let report =
          run_engine engine ?sink ~deadlock_dump:Format.std_formatter ~graph:g
            ~kernels ~inputs ~avoidance ()
        in
        Option.iter
          (fun (s, oc) ->
            Fstream_obs.Sink.close s;
            close_out oc)
          trace;
        Format.printf "%a@." Report.pp report;
        (match Report.wedge report with
        | Some snap -> (
          match Diagnosis.explain g snap with
          | Some w -> Format.printf "%a@." Diagnosis.pp_witness w
          | None -> ())
        | None -> ());
        Option.iter
          (fun c ->
            Format.printf "%a@." Fstream_obs.Metrics.pp
              (Fstream_obs.Metrics.result c))
          collector;
        (match report.outcome with Report.Completed -> 0 | _ -> 2))
  in
  let doc = "Run a topology under a random filtering workload." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ source_term $ avoidance_arg $ inputs_arg $ keep_arg
      $ engine_term $ trace_out_arg $ metrics_arg $ fuse_flag_arg
      $ compile_options_term)

(* ------------------------------------------------------------------ *)
(* fuse                                                                 *)

let fuse_cmd =
  let run src algorithm options pins =
    match load_source src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok g -> (
      let pin = if pins = [] then None else Some (fun v -> List.mem v pins) in
      match
        Compiler.compile
          ~options:
            (options { Compiler.Options.default with fuse = true; pin })
          algorithm g
      with
      | Error e -> plan_error e
      | Ok { Compiler.fused = None; _ } -> assert false
      | Ok ({ Compiler.fused = Some { fusion; fused_intervals }; _ } as plan) ->
        Format.printf "route: %a@." Compiler.pp_route plan.Compiler.route;
        Format.printf "%a@." Fusion.pp fusion;
        let fg = fusion.Fusion.graph in
        let thresholds =
          match algorithm with
          | Compiler.Propagation ->
            Compiler.propagation_thresholds fg fused_intervals
          | _ -> Compiler.send_thresholds fg fused_intervals
        in
        Format.printf "boundary channels:@.";
        Format.printf "%-6s %-6s %-10s %4s %10s %10s@." "edge" "orig" "channel"
          "cap" "interval" "threshold";
        List.iter
          (fun (e : Graph.edge) ->
            Format.printf "e%-5d e%-5d %3d -> %-4d %4d %10s %10s@." e.id
              fusion.Fusion.orig_edge.(e.id)
              e.src e.dst e.cap
              (Format.asprintf "%a" Interval.pp fused_intervals.(e.id))
              (match Thresholds.get thresholds e.id with
              | None -> "-"
              | Some k -> string_of_int k))
          (Graph.edges fg);
        0)
  in
  let pin_arg =
    Arg.(
      value & opt (list int) []
      & info [ "pin" ] ~docv:"NODES"
          ~doc:
            "Comma-separated node ids that must stay unfused (extra critical \
             boundaries).")
  in
  let doc =
    "Print the kernel-fusion partition: compound kernels, collapsed channels, \
     and the derived interval table for the boundary channels."
  in
  Cmd.v (Cmd.info "fuse" ~doc)
    Term.(
      const run $ source_term $ algorithm_arg $ compile_options_term $ pin_arg)

(* ------------------------------------------------------------------ *)
(* verify                                                               *)

let verify_cmd =
  let run src avoidance inputs max_states strategy options =
    match load_source src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok g -> (
      match
        resolve_avoidance ~options:(options Compiler.Options.default) avoidance
          g
      with
      | Error e -> plan_error e
      | Ok avoidance -> (
        let r = Verify.check ~max_states ~strategy ~graph:g ~avoidance ~inputs () in
        Format.printf "%a@." Verify.pp_result r;
        match r with
        | Verify.Safe _ -> 0
        | Verify.Deadlocks _ -> 2
        | Verify.Out_of_budget _ -> 3))
  in
  let inputs =
    Arg.(
      value & opt int 4
      & info [ "n"; "inputs" ] ~docv:"N"
          ~doc:"Input sequence numbers to model (keep small).")
  in
  let max_states =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-states" ] ~docv:"S" ~doc:"State exploration budget.")
  in
  let strategy =
    Arg.(
      value
      & opt (enum [ ("bfs", `Bfs); ("dfs", `Dfs) ]) `Bfs
      & info [ "strategy" ] ~docv:"STRAT"
          ~doc:
            "$(b,bfs) gives shortest counterexamples; $(b,dfs) finds deep \
             wedges with fewer expansions.")
  in
  let doc =
    "Exhaustively model-check deadlock freedom over all filtering choices \
     (small topologies only)."
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ source_term $ avoidance_arg $ inputs $ max_states $ strategy
      $ compile_options_term)

(* ------------------------------------------------------------------ *)
(* repair                                                               *)

let repair_cmd =
  let run src out =
    match load_source src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok g -> (
      match Fstream_repair.Repair.repair g with
      | Error e ->
        Format.eprintf "repair failed: %s@." e;
        2
      | Ok r ->
        Format.printf "%a@."
          (Fstream_repair.Repair.pp_summary ~original:g)
          r;
        (match out with
        | Some path ->
          Graph_io.save path r.graph;
          Format.printf "repaired topology written to %s@." path
        | None -> Format.printf "@.%a@." Graph.pp r.graph);
        0)
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the repaired topology to FILE (graph file format).")
  in
  let doc = "Rewrite a non-CS4 topology into a CS4 one (paper §VII)." in
  Cmd.v (Cmd.info "repair" ~doc) Term.(const run $ source_term $ out)

(* ------------------------------------------------------------------ *)
(* lint                                                                 *)

(* Lint findings get their own exit-code band (20-24), disjoint from the
   compiler's 10-14, so scripts and CI can tell "the linter found
   errors" apart from "the linter could not run". *)
let lint_cmd =
  let module Lint = Fstream_analysis.Lint in
  let module Render = Fstream_analysis.Render in
  let run src algorithm max_cycles backend format fail_on fix out color =
    (* files may carry per-node behaviours (App_spec): lint them too *)
    match load_app src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      24
    | Ok (g, spec) ->
      let config =
        {
          Lint.default_config with
          algorithm;
          backend;
          spec;
          max_cycles =
            Option.value max_cycles
              ~default:Lint.default_config.Lint.max_cycles;
        }
      in
      let source =
        match (src.file, src.demo) with
        | Some path, _ -> path
        | None, Some name -> "demo:" ^ name
        | None, None -> "graph"
      in
      let render g report =
        match format with
        | `Text -> Render.text ~color Format.std_formatter ~graph:g ~source report
        | `Json -> Render.jsonl Format.std_formatter ~graph:g report
        | `Sarif -> Render.sarif Format.std_formatter ~graph:g ~source report
      in
      let exit_code (report : Lint.report) =
        if Lint.count report Lint.Error > 0 then 20
        else if report.Lint.incomplete <> None then 23
        else if fail_on = `Warning && Lint.count report Lint.Warning > 0 then
          21
        else 0
      in
      let report = Lint.run ~config g in
      render g report;
      if not fix then exit_code report
      else begin
        match Lint.apply_fixes g report with
        | Error e ->
          Format.eprintf "fix failed: %s@." e;
          22
        | Ok (fixed, actions) ->
          List.iter (fun a -> Format.printf "fix: %s@." a) actions;
          (match out with
          | Some path ->
            Graph_io.save path fixed;
            Format.printf "fixed topology written to %s@." path
          | None -> Format.printf "@.%a@." Graph.pp fixed);
          (* the verdict that counts is the fixed topology's *)
          let report' = Lint.run ~config:{ config with Lint.spec = None } fixed in
          Format.printf "@.re-lint of the fixed topology:@.";
          render fixed report';
          exit_code report'
      end
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,text) (human), $(b,json) (one object per \
             finding) or $(b,sarif) (SARIF 2.1.0 for code-scanning upload).")
  in
  let fail_on_arg =
    Arg.(
      value
      & opt (enum [ ("error", `Error); ("warning", `Warning) ]) `Error
      & info [ "fail-on" ] ~docv:"SEV"
          ~doc:
            "Lowest severity that fails the run: $(b,error) (default; exit \
             20) or $(b,warning) (exit 21 when only warnings are present).")
  in
  let fix_arg =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:
            "Apply the report's fixits (CS4 reroute, buffer scaling), print \
             the fixed topology (or write it with $(b,--output)), and \
             re-lint it; the exit code reflects the fixed topology.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"With $(b,--fix): write the fixed topology to FILE.")
  in
  let color_arg =
    Arg.(
      value & flag
      & info [ "color" ] ~doc:"Colorize severities in $(b,text) output.")
  in
  let doc =
    "Statically analyze a topology: structural, cycle, capacity and spec \
     rules with witnesses and fixits."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ source_term $ algorithm_arg $ max_cycles_arg $ backend_arg
      $ format_arg $ fail_on_arg $ fix_arg $ out_arg $ color_arg)

(* ------------------------------------------------------------------ *)
(* size                                                                 *)

let size_cmd =
  let run src algorithm target =
    match load_source src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok g -> (
      match Sizing.min_uniform_scale g algorithm ~target with
      | Error e ->
        Format.eprintf "error: %s@." e;
        1
      | Ok c ->
        Format.printf
          "smallest uniform buffer scaling for intervals >= %d: x%d@." target c;
        match Sizing.scale_caps g c with
        | Error e ->
          Format.eprintf "error: %s@." e;
          1
        | Ok scaled ->
          (match Compiler.compile algorithm scaled with
          | Ok p ->
            let tightest =
              Array.fold_left Interval.min Interval.inf p.intervals
            in
            Format.printf "tightest interval after scaling: %a@." Interval.pp
              tightest
          | Error _ -> ());
          0)
  in
  let target =
    Arg.(
      value & opt int 10
      & info [ "t"; "target" ] ~docv:"K"
          ~doc:"Require every dummy interval to be at least K.")
  in
  let doc =
    "Compute the minimal uniform buffer scaling for a target dummy rate."
  in
  Cmd.v (Cmd.info "size" ~doc)
    Term.(const run $ source_term $ algorithm_arg $ target)

(* ------------------------------------------------------------------ *)
(* dot                                                                  *)

let dot_cmd =
  let run src =
    match load_source src with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok g ->
      print_string (Dot.render g);
      0
  in
  let doc = "Emit Graphviz dot for a topology (to stdout)." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ source_term)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)

(* The multi-tenant daemon shape, batch-sized for a CLI: load every
   tenant spec, admit them all (lint at the door, compile-once
   registry), start every admitted session on one shared pool, then
   await and summarize. Exit codes are the 30-32 band from the map
   above; the worst tenant wins. *)
let serve_cmd =
  let module Serve = Fstream_serve.Serve in
  let run dir demo_tenants mode inputs seed domains reconfig options =
    let sources =
      match (dir, demo_tenants) with
      | Some _, _ :: _ ->
        Error "pass either --dir or --demo tenants, not both"
      | Some d, [] -> (
        match Sys.readdir d with
        | exception Sys_error e -> Error e
        | names ->
          Array.sort compare names;
          Ok
            (Array.to_list names
            |> List.map (Filename.concat d)
            |> List.filter (fun p -> not (Sys.is_directory p))
            |> List.map (fun p -> `Spec p)))
      | None, (_ :: _ as ds) -> Ok (List.map (fun d -> `Demo d) ds)
      | None, [] ->
        (* tenant spec paths on stdin, one per line *)
        let rec read acc =
          match input_line stdin with
          | line ->
            let line = String.trim line in
            read (if line = "" then acc else `Spec line :: acc)
          | exception End_of_file -> List.rev acc
        in
        Ok (read [])
    in
    match sources with
    | Error e ->
      Format.eprintf "error: %s@." e;
      32
    | Ok [] ->
      Format.eprintf "error: no tenant specs (pass --dir, --demo, or paths \
                      on stdin)@.";
      32
    | Ok sources ->
      let load_failed = ref false
      and rejected = ref false
      and run_failed = ref false in
      let loaded =
        List.filter_map
          (fun source ->
            match source with
            | `Spec path -> (
              let name = Filename.remove_extension (Filename.basename path) in
              match App_spec.load path with
              | Error e ->
                Format.printf "%-16s load error: %s@." name e;
                load_failed := true;
                None
              | Ok spec -> Some (name, spec))
            | `Demo name -> (
              match load_graph ~seed None (Some name) with
              | Error e ->
                Format.printf "%-16s load error: %s@." name e;
                load_failed := true;
                None
              | Ok g ->
                Some
                  ( name,
                    { App_spec.graph = g; behaviors = []; default =
                        App_spec.Bernoulli 0.7 } )))
          sources
      in
      let t =
        Serve.create ?domains ~options:(options Compiler.Options.default) ()
      in
      let sessions =
        List.filter_map
          (fun (name, (spec : App_spec.t)) ->
            match Serve.admit t ~name ~spec ~mode spec.App_spec.graph with
            | Error r ->
              Format.printf "%-16s rejected: %a@." name Serve.pp_rejection r;
              rejected := true;
              None
            | Ok s -> Some (s, spec))
          loaded
      in
      (* every admitted session is live on the pool before any await:
         their shards interleave under the fair-share quota *)
      List.iter
        (fun (s, spec) ->
          Serve.start t ~kernels:(App_spec.kernels spec ~seed) ~inputs s)
        sessions;
      let await_round () =
        List.iter
          (fun (s, _) ->
            let r = Serve.await s in
            if r.Report.outcome <> Report.Completed then run_failed := true;
            Format.printf "%-16s %a  data=%d sink=%d dummy=%d@."
              (Serve.name s) Report.pp_outcome r.Report.outcome
              r.Report.data_messages r.Report.sink_data
              r.Report.dummy_messages)
          sessions
      in
      await_round ();
      (* hot reconfiguration round: apply each "tenant: ops" script to
         its (drained) session, then rerun every session on its
         current epoch — reconfigured tenants under their edited
         topology and recompiled table *)
      if reconfig <> [] then begin
        List.iter
          (fun line ->
            let fail fmt =
              rejected := true;
              Format.printf fmt
            in
            match String.index_opt line ':' with
            | None ->
              fail "reconfigure: missing \"tenant:\" prefix in %S@." line
            | Some i -> (
              let tname = String.trim (String.sub line 0 i) in
              let script =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              match
                List.find_opt (fun (s, _) -> Serve.name s = tname) sessions
              with
              | None -> fail "reconfigure: no running tenant %S@." tname
              | Some (s, _) -> (
                match Edit.parse_ops script with
                | Error e ->
                  fail "%-16s reconfigure parse error: %s@." tname e
                | Ok ops -> (
                  match Serve.reconfigure t s ops with
                  | Error r ->
                    fail "%-16s reconfigure rejected: %a@." tname
                      Serve.pp_rejection r
                  | Ok stats ->
                    Format.printf "%-16s reconfigured epoch=%d%s@." tname
                      (Serve.epoch s)
                      (match stats with
                      | None -> " (registry hit)"
                      | Some st ->
                        Printf.sprintf " spliced=%d recomputed=%d%s"
                          st.Compiler.spliced_edges
                          st.Compiler.recomputed_edges
                          (match st.Compiler.lp_stats with
                          | None -> ""
                          | Some lp ->
                            Printf.sprintf " lp:paths=%d" lp.Lp.rpivots))))))
          reconfig;
        List.iter
          (fun (s, spec) ->
            let spec = { spec with App_spec.graph = Serve.graph s } in
            Serve.start t ~kernels:(App_spec.kernels spec ~seed) ~inputs s)
          sessions;
        await_round ()
      end;
      Serve.shutdown t;
      let st = Serve.stats t in
      if reconfig = [] then
        Format.printf "tenants=%d rejected=%d compiles=%d@." st.Serve.tenants
          st.Serve.rejections st.Serve.compiles
      else
        Format.printf
          "tenants=%d rejected=%d compiles=%d recompiles=%d warm_pivots=%d@."
          st.Serve.tenants st.Serve.rejections st.Serve.compiles
          st.Serve.recompiles st.Serve.warm_pivots;
      if !load_failed then 32
      else if !rejected then 30
      else if !run_failed then 31
      else 0
  in
  let dir_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Serve every App_spec file in DIR as a tenant (sorted by name). \
             Without $(b,--dir) or $(b,--demo), spec paths are read from \
             stdin, one per line.")
  in
  let demo_tenants_arg =
    let names = String.concat ", " (List.map fst demos) in
    Arg.(
      value & opt_all string []
      & info [ "demo" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Serve a built-in demo topology as a tenant under a Bernoulli \
                workload (repeatable): %s."
               names))
  in
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Serve.No_avoidance);
               ("propagation", Serve.Propagation);
               ("non-propagation", Serve.Non_propagation);
             ])
          Serve.Non_propagation
      & info [ "avoidance" ] ~docv:"MODE"
          ~doc:
            "Avoidance mode every tenant runs under; the serving layer \
             compiles one threshold table per distinct topology \
             fingerprint.")
  in
  let reconfigure_arg =
    Arg.(
      value & opt_all string []
      & info [ "reconfigure" ] ~docv:"TENANT: OPS"
          ~doc:
            "After the first round completes, apply an edit script to a \
             tenant and rerun every tenant (repeatable). OPS is a \
             $(b,;)-separated list of $(b,resize E CAP), $(b,add-edge SRC \
             DST CAP), $(b,remove-edge E), $(b,add-stage E CIN COUT), \
             $(b,remove-stage N [CAP]). The edited topology passes the \
             same lint bar as admission; its threshold table is \
             recompiled off the previous compile (after a resize-only \
             script the serial blocks with no resized edge splice and \
             the others are recomputed; any other script, and the LP, \
             compiles cold) and swapped at the run boundary.")
  in
  let doc =
    "Serve many tenant applications on one shared worker pool, with lint \
     admission control, a compile-once threshold registry, and hot \
     reconfiguration of live tenants."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ dir_arg $ demo_tenants_arg $ mode_arg $ inputs_arg
      $ seed_arg $ domains_arg $ reconfigure_arg
      $ compile_options_term)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "deadlock avoidance for streaming computation with filtering" in
  let info = Cmd.info "streamcheck" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            classify_cmd;
            intervals_cmd;
            fuse_cmd;
            simulate_cmd;
            verify_cmd;
            repair_cmd;
            lint_cmd;
            serve_cmd;
            size_cmd;
            dot_cmd;
          ]))
